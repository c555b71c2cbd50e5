/**
 * @file
 * sweep-table2: the paper's Table II as table2_main builds it -- six
 * molecules under JW and BK plus UCC-10..35, each compiled by
 * Paulihedral and by Tetris for the 65-qubit heavy-hex device -- in
 * one Engine::compileAll call against a cold memory cache with no
 * disk tier. Closed loop: one caller, one sweep at a time.
 *
 * The seed picks the synthetic UCC instances; the molecules stay the
 * paper's.
 */

#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "chem/uccsd.hh"
#include "core/pipeline_adapters.hh"
#include "hardware/topologies.hh"

namespace perfbench
{

using namespace tetris;

namespace
{

struct SweepInputs
{
    /** Paulihedral then Tetris, per row. */
    std::vector<CompileJob> jobs;
    std::vector<std::string> rows;
    uint64_t strings = 0;
    uint64_t blocks = 0;
    double chemSeconds = 0.0;
};

SweepInputs
buildInputs(const Args &args, Tracing &tracing, int run)
{
    const int64_t root =
        tracing.spans.open("setup", SpanLog::kNoParent, run);
    SweepInputs in;
    auto hw = std::make_shared<const CouplingGraph>(ibmIthaca65());
    auto timedBuild = [&](auto &&build) {
        const uint64_t t0 = nowNs();
        std::vector<PauliBlock> blocks = build();
        const uint64_t t1 = nowNs();
        tracing.spans.add("chem.build", root, run, t0, t1);
        in.chemSeconds += secondsBetween(t0, t1);
        return blocks;
    };
    auto addRow = [&](const std::string &name,
                      std::vector<PauliBlock> blocks) {
        in.rows.push_back(name);
        in.strings += 2 * totalStrings(blocks);
        in.blocks += 2 * blocks.size();
        for (int tetris_row = 0; tetris_row < 2; ++tetris_row) {
            CompileJob job;
            job.name = name + (tetris_row ? "/tetris" : "/ph");
            job.blocks = blocks;
            job.hw = hw;
            job.pipeline = tetris_row ? makeTetrisPipeline()
                                      : makePaulihedralPipeline();
            in.jobs.push_back(std::move(job));
        }
    };

    std::vector<MoleculeSpec> molecules = moleculeBenchmarks();
    std::vector<int> ucc_sizes = {10, 15, 20, 25, 30, 35};
    if (args.small()) {
        molecules.resize(2);
        ucc_sizes = {10, 15};
    }
    for (const char *enc : {"jw", "bk"}) {
        for (const MoleculeSpec &spec : molecules) {
            addRow(spec.name + "/" + enc,
                   timedBuild([&] { return buildMolecule(spec, enc); }));
        }
    }
    for (int n : ucc_sizes) {
        const uint64_t ucc_seed = mixSeed(args.seed, 1, n);
        addRow("UCC-" + std::to_string(n), timedBuild([&] {
                   return buildSyntheticUcc(n, ucc_seed);
               }));
    }
    tracing.spans.close(root);
    return in;
}

struct SweepRound
{
    double wall = 0.0;
    double cpu = 0.0;
    Quality quality;
    EngineTotals engine;
    std::vector<std::shared_ptr<const CompileResult>> results;
};

/**
 * One sweep on a fresh engine (cold memory cache). Checks every
 * verdict and the paper's claim that Tetris beats Paulihedral on
 * CNOTs in every row; returns the number of failed jobs.
 */
uint64_t
runRound(const SweepInputs &in, Tracing &tracing, int run, Report &r,
         SweepRound &out)
{
    std::vector<CompileJob> jobs = in.jobs;
    Engine engine(engineOptions(&tracing.engine));

    const int64_t root =
        tracing.spans.open("round", SpanLog::kNoParent, run);
    const int64_t call =
        tracing.spans.open("Engine::compileAll", root, run);
    const double cpu0 = processCpuSeconds();
    const uint64_t t0 = nowNs();
    out.results = engine.compileAll(std::move(jobs));
    const uint64_t t1 = nowNs();
    out.cpu = processCpuSeconds() - cpu0;
    tracing.spans.close(call);
    tracing.spans.close(root);
    out.wall = secondsBetween(t0, t1);
    out.engine = EngineTotals::read(engine);

    uint64_t failed = 0;
    for (const auto &res : out.results) {
        if (res == nullptr || res->cancelled)
            ++failed;
        else
            out.quality.add(res->stats);
    }
    const uint64_t jobs_n = in.jobs.size();
    if (out.engine.verifyPass != jobs_n) {
        r.fail("sweep: " + std::to_string(out.engine.verifyPass) + " of " +
               std::to_string(jobs_n) + " verdicts were Pass");
        failed += jobs_n - std::min(jobs_n, out.engine.verifyPass);
    }
    for (size_t i = 0; i < in.rows.size() && failed == 0; ++i) {
        const auto &ph = out.results[2 * i]->stats;
        const auto &tet = out.results[2 * i + 1]->stats;
        if (tet.cnotCount >= ph.cnotCount) {
            r.fail("sweep: " + in.rows[i] + " Tetris CNOTs " +
                   std::to_string(tet.cnotCount) +
                   " not below Paulihedral " +
                   std::to_string(ph.cnotCount));
            ++failed;
        }
    }
    return failed;
}

} // namespace

void
runSweep(const Args &args, Report &r, Tracing &tracing)
{
    reportEngineConfig(r);
    r.setConfig("sweep.device", "ibm-ithaca-65 heavy-hex");
    r.setConfig("sweep.loop", "closed, 1 caller, 1 compileAll at a time");

    std::vector<double> setups;
    SweepInputs in;
    while (moreSetups(setups)) {
        const uint64_t t0 = nowNs();
        in = buildInputs(args, tracing, 0);
        setups.push_back(secondsBetween(t0, nowNs()));
    }
    r.setConfig("sweep.jobs", std::to_string(in.jobs.size()));

    std::vector<double> walls;
    std::vector<double> cpus;
    Quality first;
    double rss_mb = 0.0;
    const uint64_t start = nowNs();
    do {
        SweepRound round;
        r.failed += runRound(in, tracing, 0, r, round);
        r.attempted += in.jobs.size();
        if (walls.empty()) {
            first = round.quality;
            rss_mb = peakRssMb();
        } else if (round.quality != first) {
            r.fail("sweep: quality counts changed between rounds");
        }
        walls.push_back(round.wall);
        cpus.push_back(round.cpu);
        char line[96];
        std::snprintf(line, sizeof(line), "round %zu: wall %.4f s, cpu %.4f s",
                      walls.size(), round.wall, round.cpu);
        r.note(line);
    } while (secondsBetween(start, nowNs()) < args.seconds);

    const double wall = median(walls);
    r.e2e("setup_s", median(setups), "s");
    r.e2e("wall_s", wall, "s");
    r.e2e("rtt_p50_ms", wall * 1e3, "ms");
    r.e2e("rps", static_cast<double>(in.jobs.size()) / wall, "1/s");
    r.e2e("instr_per_s", static_cast<double>(in.strings) / wall, "1/s");
    r.e2e("cpu_s", median(cpus), "s");
    r.e2e("peak_rss_mb", rss_mb, "MB");
    first.report(r);

    if (!args.trace)
        return;
    tracing.enable();
    const SweepInputs traced_in = buildInputs(args, tracing, 1);
    r.layer("chem.build_s", traced_in.chemSeconds, "s");
    SweepRound round;
    r.failed += runRound(traced_in, tracing, 1, r, round);
    r.attempted += traced_in.jobs.size();
    if (round.quality != first)
        r.fail("sweep: traced round changed the quality counts");
    reportEngineLayers(r, round.engine, round.wall);
    reportQualityLayers(r, round.quality);
    r.layer("core.blocks", static_cast<double>(traced_in.blocks), "count");
    CodecMeter codec(tracing, 1);
    for (const auto &res : round.results)
        codec.add(*res);
    codec.report(r);
    r.layer("trace.overhead_pct", (round.wall / wall - 1.0) * 100.0, "%");
}

} // namespace perfbench
