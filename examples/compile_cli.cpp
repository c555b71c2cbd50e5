/**
 * @file
 * Command-line compiler driver: compile a named workload with any
 * registered pipeline and backend, print the paper's metrics, and
 * optionally export the compiled circuit as OpenQASM 2.0 -- the
 * "downstream user" entry point of the library. The job runs through
 * the batch engine (Engine::compileAll), so it exercises the same
 * registry dispatch and compile cache as the bench sweeps.
 *
 * Usage:
 *   compile_cli --workload LiH|BeH2|...|ucc-20|qaoa-rand-16
 *               [--encoder jw|bk] [--backend ithaca|sycamore]
 *               [--compiler <registry id or alias>]
 *               [--swap-weight W] [--lookahead K] [--no-bridging]
 *               [--qasm out.qasm]
 *
 * --compiler takes any PipelineRegistry id (tetris, paulihedral,
 * tket-o2, tket-o3, pcoast, naive, max-cancel, qaoa-2qan,
 * qaoa-bridge) plus the legacy aliases ph, max, tket. "tetris" on a
 * QAOA workload selects the qaoa-bridge pass, as the paper does.
 * --backend takes only ithaca or sycamore and --swap-weight a finite
 * W >= 0 (Fig. 20 sweeps 0.1 to 100); any other value prints the
 * usage and exits 2.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "chem/uccsd.hh"
#include "circuit/qasm.hh"
#include "common/env.hh"
#include "core/pipeline_adapters.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "qaoa/qaoa.hh"
#include "verify/verify.hh"

namespace
{

using namespace tetris;

[[noreturn]] void
usage()
{
    std::string ids;
    for (const auto &id : PipelineRegistry::instance().ids())
        ids += (ids.empty() ? "" : "|") + id;
    std::fprintf(stderr,
                 "usage: compile_cli --workload <name> [--encoder jw|bk]"
                 " [--backend ithaca|sycamore] [--compiler %s|ph|max|"
                 "tket] [--swap-weight W] [--lookahead K]"
                 " [--no-bridging] [--verify] [--qasm FILE]\n"
                 "(--workload ucc-N builds UCC-N, an integer N in [4, "
                 "backend width]: 65 on ithaca, 64 on sycamore)\n"
                 "(--lookahead sets the scheduler's candidate-set size, "
                 "an integer K in [1, 1048576]; default 10)\n"
                 "(--swap-weight takes a finite number W >= 0; "
                 "default 3)\n"
                 "(--verify, or TETRIS_VERIFY=1, checks the compiled "
                 "circuit against the source Pauli-block program with "
                 "the conjugation checker and exits nonzero on a "
                 "semantic mismatch)\n",
                 ids.c_str());
    std::exit(2);
}

/** `s` as a whole finite decimal >= 0; nullopt on anything else. */
std::optional<double>
parseSwapWeight(const char *s)
{
    errno = 0;
    char *end = nullptr;
    const double w = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE ||
        !std::isfinite(w) || w < 0.0)
        return std::nullopt;
    return w;
}

std::vector<PauliBlock>
loadWorkload(const std::string &name, const std::string &encoder,
             const CouplingGraph &hw, bool &is_qaoa)
{
    is_qaoa = false;
    if (name.rfind("ucc-", 0) == 0) {
        // UCCSD needs at least 4 qubits, and every one needs a wire.
        auto n = parseBoundedInt(name.c_str() + 4, 4, hw.numQubits());
        if (!n)
            usage();
        return buildSyntheticUcc(static_cast<int>(*n), 1000 + *n);
    }
    if (name.rfind("qaoa-", 0) == 0) {
        is_qaoa = true;
        for (const auto &spec : qaoaBenchmarks()) {
            std::string key = spec.name;
            for (auto &c : key)
                c = static_cast<char>(std::tolower(c));
            if ("qaoa-" + key == name)
                return buildQaoaCostBlocks(buildQaoaGraph(spec, 1), 0.35);
        }
        fatal("unknown QAOA workload '", name, "'");
    }
    return buildMolecule(moleculeByName(name), encoder);
}

/**
 * Resolve the --compiler argument to a configured pipeline. The
 * tetris/qaoa-bridge instances get the command-line knobs applied;
 * everything else comes default-configured from the registry.
 */
PipelinePtr
resolvePipeline(std::string compiler, bool is_qaoa,
                const TetrisOptions &opts)
{
    // Legacy aliases from the pre-registry CLI.
    if (compiler == "ph")
        compiler = "paulihedral";
    else if (compiler == "max")
        compiler = "max-cancel";
    else if (compiler == "tket")
        compiler = "tket-o2";

    if (compiler == "tetris" && is_qaoa)
        compiler = "qaoa-bridge"; // the paper's QAOA pass

    if (compiler == "tetris")
        return makeTetrisPipeline(opts);
    if (compiler == "qaoa-bridge") {
        QaoaPassOptions qopts;
        qopts.enableBridging = opts.synthesis.enableBridging;
        return makeQaoaBridgePipeline(qopts);
    }
    if (!PipelineRegistry::instance().contains(compiler))
        usage();
    return PipelineRegistry::instance().create(compiler);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tetris;

    std::string workload, encoder = "jw", backend = "ithaca";
    std::string compiler = "tetris", qasm_path;
    TetrisOptions opts;
    bool do_verify = envFlag("TETRIS_VERIFY");

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage();
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            workload = need("--workload");
        else if (!std::strcmp(argv[i], "--encoder"))
            encoder = need("--encoder");
        else if (!std::strcmp(argv[i], "--backend")) {
            backend = need("--backend");
            if (backend != "ithaca" && backend != "sycamore")
                usage();
        }
        else if (!std::strcmp(argv[i], "--compiler"))
            compiler = need("--compiler");
        else if (!std::strcmp(argv[i], "--swap-weight")) {
            auto w = parseSwapWeight(need("--swap-weight"));
            if (!w)
                usage();
            opts.synthesis.swapWeight = *w;
        }
        else if (!std::strcmp(argv[i], "--lookahead")) {
            auto k = parseBoundedInt(need("--lookahead"), 1, 1 << 20);
            if (!k)
                usage();
            opts.lookaheadK = static_cast<int>(*k);
        }
        else if (!std::strcmp(argv[i], "--no-bridging"))
            opts.synthesis.enableBridging = false;
        else if (!std::strcmp(argv[i], "--verify"))
            do_verify = true;
        else if (!std::strcmp(argv[i], "--qasm"))
            qasm_path = need("--qasm");
        else
            usage();
    }
    if (workload.empty())
        usage();

    auto hw = std::make_shared<const CouplingGraph>(
        backend == "sycamore" ? googleSycamore64() : ibmIthaca65());
    bool is_qaoa = false;
    auto blocks = loadWorkload(workload, encoder, *hw, is_qaoa);

    CompileJob job;
    job.name = workload + "/" + compiler;
    job.blocks = blocks;
    job.hw = hw;
    job.pipeline = resolvePipeline(compiler, is_qaoa, opts);

    EngineOptions eopts;
    // Set TETRIS_CACHE_DIR to reuse compilations across invocations.
    eopts.diskCache = DiskCache::openFromEnv();
    Engine engine(eopts);
    std::vector<CompileJob> jobs;
    jobs.push_back(std::move(job)); // a braced list would deep-copy
    auto results = engine.compileAll(std::move(jobs));
    const CompileResult &result = *results.front();

    std::printf("workload   : %s (%zu blocks, %zu strings)\n",
                workload.c_str(), blocks.size(), totalStrings(blocks));
    std::printf("backend    : %s\n", hw->name().c_str());
    std::printf("compiler   : %s\n", compiler.c_str());
    std::printf("CNOT       : %zu (logical %zu + swap %zu)\n",
                result.stats.cnotCount, result.stats.logicalCnots,
                result.stats.swapCnots);
    std::printf("1Q gates   : %zu\n", result.stats.oneQubitCount);
    std::printf("depth      : %zu\n", result.stats.depth);
    std::printf("duration   : %.0f dt\n", result.stats.durationDt);
    std::printf("cancel     : %.1f%%\n",
                100.0 * result.stats.cancelRatio);
    std::printf("compile    : %.3f s\n", result.stats.compileSeconds);
    if (const DiskCache *disk = engine.diskCache()) {
        std::printf("disk cache : %s (%zu hit, %zu miss)\n",
                    disk->dir().c_str(), disk->hits(), disk->misses());
    }

    if (!qasm_path.empty()) {
        if (!writeQasm(result.circuit, qasm_path))
            fatal("cannot write '", qasm_path, "'");
        std::printf("qasm       : %s (%zu gates)\n", qasm_path.c_str(),
                    result.circuit.size());
    }

    if (do_verify) {
        VerifyReport report = verifyConjugation(blocks, result);
        std::printf("verify     : %s (%s checker%s%s)\n",
                    verifyStatusName(report.status),
                    report.method.c_str(),
                    report.detail.empty() ? "" : ": ",
                    report.detail.c_str());
        if (report.failed())
            return 1;
    }
    return 0;
}
