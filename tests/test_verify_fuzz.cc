/**
 * @file
 * Differential fuzzing harness: seeded random Pauli-block programs
 * and devices (with adversarial rotation angles at and near 0 and
 * +-pi -- see fuzzTheta -- and the odd constant, all-identity term),
 * compiled through every registered pipeline, with every result
 * checked against the source program (both checkers) and -- when the
 * program is order-free (globally commuting) -- against every *other*
 * pipeline's result state-for-state. Each pipeline thus acts as a
 * test oracle for all the others: a miscompile must either trip its
 * own verifier or disagree with six independent compilers.
 *
 * The sweep is seeded and bounded so ctest stays fast; scripts/
 * fuzz_verify.py drives many seeds for the long-running version:
 *
 *   TETRIS_FUZZ_SEED=<n>   base seed (default 1)
 *   TETRIS_FUZZ_CASES=<n>  programs per suite (default 4)
 */

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "core/pipeline.hh"
#include "core/pipeline_adapters.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "qaoa/graph.hh"
#include "qaoa/qaoa.hh"
#include "sim/statevector.hh"
#include "test_util.hh"
#include "verify/internal.hh"
#include "verify/verify.hh"

namespace tetris
{
namespace
{

uint64_t
baseSeed()
{
    return envInt("TETRIS_FUZZ_SEED", 0, INT64_MAX, 1);
}

int
numCases()
{
    return static_cast<int>(envInt("TETRIS_FUZZ_CASES", 0, INT32_MAX, 4));
}

/**
 * A fuzz rotation angle. Half the draws are benign uniforms; the
 * other half target the numerically hostile corners of the domain:
 * exactly 0 and ±π, and values a sub-1e-7 epsilon away from them.
 * These stress the conjugation checker's per-axis angle sums mod 2π
 * (±π alias under the wraparound, near-zero sums sit right at the
 * match tolerance) and the exact checker's phase comparison.
 */
double
fuzzTheta(Rng &rng)
{
    if (rng.uniformInt(0, 1) == 0)
        return rng.uniform(-1.4, 1.4);
    constexpr double kPi = 3.14159265358979323846;
    const double eps = rng.uniform(0.0, 1e-7);
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return 0.0;
      case 1:
        return eps;
      case 2:
        return -eps;
      case 3:
        return kPi - eps;
      case 4:
        return -kPi + eps;
      default:
        return rng.uniformInt(0, 1) == 0 ? kPi : -kPi;
    }
}

/** A random non-identity string over n qubits. */
PauliString
randomString(Rng &rng, int n)
{
    while (true) {
        PauliString s(static_cast<size_t>(n));
        for (int q = 0; q < n; ++q)
            s.setOp(q, static_cast<PauliOp>(rng.uniformInt(0, 3)));
        if (!s.isIdentity())
            return s;
    }
}

/**
 * A random block program. Strings within one block always mutually
 * commute (the library contract both schedulers and the conjugation
 * checker rely on); `globally_commuting` additionally makes every
 * cross-block pair commute, which legalizes arbitrary inter-block
 * reordering and hence direct pipeline-vs-pipeline comparison.
 */
std::vector<PauliBlock>
randomProgram(Rng &rng, int num_qubits, bool globally_commuting)
{
    const int num_blocks = rng.uniformInt(2, 4);
    std::vector<PauliString> accepted;
    std::vector<PauliBlock> blocks;
    for (int b = 0; b < num_blocks; ++b) {
        const int want = rng.uniformInt(1, 3);
        std::vector<PauliString> strings;
        std::vector<double> weights;
        for (int attempt = 0; attempt < 200 &&
                              static_cast<int>(strings.size()) < want;
             ++attempt) {
            // One draw in eight is a constant term, as Hamiltonian
            // Pauli lists carry: a global phase no pipeline emits a
            // gate for, which the checkers must not expect either.
            PauliString cand =
                rng.uniformInt(0, 7) == 0
                    ? PauliString(static_cast<size_t>(num_qubits))
                    : randomString(rng, num_qubits);
            bool ok = true;
            for (const auto &s : strings)
                ok = ok && cand.commutesWith(s);
            if (globally_commuting) {
                for (const auto &s : accepted)
                    ok = ok && cand.commutesWith(s);
            }
            if (!ok)
                continue;
            strings.push_back(cand);
            // Unit weights every few draws keep w*theta exactly on
            // the adversarial angle instead of smearing it.
            weights.push_back(rng.uniformInt(0, 2) == 0
                                  ? 1.0
                                  : rng.uniform(0.25, 1.75));
        }
        if (strings.empty())
            continue;
        accepted.insert(accepted.end(), strings.begin(), strings.end());
        blocks.emplace_back(std::move(strings), std::move(weights),
                            fuzzTheta(rng));
    }
    if (blocks.empty())
        blocks.push_back(PauliBlock({randomString(rng, num_qubits)}, 0.5));
    return blocks;
}

/** A random connected device with >= min_qubits wires. */
CouplingGraph
randomDevice(Rng &rng, int min_qubits)
{
    const int n = min_qubits + rng.uniformInt(0, 2);
    switch (rng.uniformInt(0, 3)) {
      case 0:
        return lineTopology(n);
      case 1:
        return ringTopology(std::max(n, 3));
      case 2:
        return gridTopology(2, (n + 1) / 2);
      default: {
        // Random spanning tree plus a few chords.
        std::set<std::pair<int, int>> edges;
        for (int v = 1; v < n; ++v)
            edges.insert({rng.uniformInt(0, v - 1), v});
        for (int extra = rng.uniformInt(0, n / 2); extra > 0; --extra) {
            int a = rng.uniformInt(0, n - 1);
            int b = rng.uniformInt(0, n - 1);
            if (a == b)
                continue;
            edges.insert({std::min(a, b), std::max(a, b)});
        }
        return CouplingGraph(
            n, {edges.begin(), edges.end()}, "fuzz-random");
      }
    }
}

std::vector<std::string>
generalPipelines()
{
    return {"tetris",  "paulihedral", "tket-o2",   "tket-o3",
            "pcoast",  "naive",       "max-cancel"};
}

/**
 * Simulate `result` on the embedded input and undo its final-layout
 * permutation, so states from different pipelines (with different
 * SWAP histories) become directly comparable.
 */
Statevector
normalizedOutput(const std::vector<PauliBlock> &blocks,
                 const CompileResult &result, const Statevector &start,
                 int width)
{
    Statevector out = start;
    out.applyCircuit(result.circuit);
    std::string why;
    auto perm = verify_detail::finalPermutation(
        result, blocksNumQubits(blocks), width, why);
    EXPECT_TRUE(perm.has_value()) << why;
    if (!perm)
        return out;
    // Invert: move bit new_pos[l] back onto l.
    std::vector<int> inverse(width, 0);
    for (int b = 0; b < width; ++b)
        inverse[(*perm)[b]] = b;
    return test::permuteState(out, inverse);
}

struct Compiled
{
    std::string id;
    CompileResult result;
};

/** Compile through every id; each result must self-verify. */
std::vector<Compiled>
compileAllAndVerify(const std::vector<PauliBlock> &blocks,
                    const CouplingGraph &hw,
                    const std::vector<std::string> &ids,
                    const std::string &ctx)
{
    std::vector<Compiled> out;
    for (const auto &id : ids) {
        Compiled c{id,
                   PipelineRegistry::instance().create(id)->run(blocks,
                                                                hw)};
        VerifyReport exact = verifyExact(blocks, c.result);
        EXPECT_EQ(exact.status, VerifyStatus::Pass)
            << ctx << " " << id << " exact: " << exact.detail;
        VerifyReport conj = verifyConjugation(blocks, c.result);
        EXPECT_EQ(conj.status, VerifyStatus::Pass)
            << ctx << " " << id << " conjugation: " << conj.detail;
        out.push_back(std::move(c));
    }
    return out;
}

/** All results must agree state-for-state (order-free programs). */
void
expectPairwiseAgreement(const std::vector<PauliBlock> &blocks,
                        const std::vector<Compiled> &compiled,
                        const CouplingGraph &hw, Rng &rng,
                        const std::string &ctx)
{
    const int width = hw.numQubits();
    Statevector logical =
        Statevector::random(blocksNumQubits(blocks), rng);
    Statevector start = test::embedState(logical, width);

    std::vector<Statevector> states;
    for (const auto &c : compiled)
        states.push_back(
            normalizedOutput(blocks, c.result, start, width));
    for (size_t i = 1; i < states.size(); ++i) {
        double overlap = states[0].overlapWith(states[i]);
        EXPECT_NEAR(overlap, 1.0, 1e-7)
            << ctx << ": " << compiled[0].id << " vs "
            << compiled[i].id << " diverge";
    }
}

TEST(DifferentialFuzz, RandomProgramsAcrossAllPipelines)
{
    const int cases = numCases();
    for (int c = 0; c < cases; ++c) {
        Rng rng(baseSeed() * 1000003 + c);
        const bool order_free = c % 2 == 0;
        // 3-11 logicals put the devices at 4-14 wires, so the two
        // checkers are compared at every width from 4 to 14.
        const int num_qubits = rng.uniformInt(3, 11);
        auto blocks = randomProgram(rng, num_qubits, order_free);
        CouplingGraph hw = randomDevice(rng, num_qubits + 1);

        std::ostringstream ctx;
        ctx << "case " << c << " (seed " << baseSeed() << ", "
            << hw.name() << "/" << hw.numQubits() << "q"
            << (order_free ? ", order-free" : "") << ")";

        auto compiled = compileAllAndVerify(blocks, hw,
                                            generalPipelines(),
                                            ctx.str());
        if (order_free)
            expectPairwiseAgreement(blocks, compiled, hw, rng,
                                    ctx.str());
    }
}

TEST(DifferentialFuzz, QaoaProgramsIncludeQaoaPipelines)
{
    const int cases = numCases();
    for (int c = 0; c < cases; ++c) {
        Rng rng(baseSeed() * 7000003 + c);
        const int n = rng.uniformInt(5, 7);
        Graph g = Graph::randomWithEdges(
            n, rng.uniformInt(n, n + 3),
            static_cast<int>(baseSeed() * 31 + c));
        auto blocks = buildQaoaCostBlocks(g, rng.uniform(0.1, 0.9));
        CouplingGraph hw = randomDevice(rng, n + 1);

        std::ostringstream ctx;
        ctx << "qaoa case " << c << " (seed " << baseSeed() << ")";

        // ZZ cost layers are globally commuting, so the QAOA-special
        // pipelines can be compared directly against the general
        // ones. Qubit reuse is disabled: measure+reset circuits are
        // outside the unitary contract (the checkers skip them).
        std::vector<Compiled> compiled = compileAllAndVerify(
            blocks, hw,
            {"tetris", "paulihedral", "naive", "qaoa-2qan"},
            ctx.str());
        QaoaPassOptions qopts;
        qopts.enableQubitReuse = false;
        Compiled bridge{
            "qaoa-bridge(no-reuse)",
            makeQaoaBridgePipeline(qopts)->run(blocks, hw)};
        VerifyReport conj = verifyConjugation(blocks, bridge.result);
        EXPECT_EQ(conj.status, VerifyStatus::Pass)
            << ctx.str() << " " << conj.detail;
        compiled.push_back(std::move(bridge));

        expectPairwiseAgreement(blocks, compiled, hw, rng, ctx.str());
    }
}

TEST(DifferentialFuzz, EngineSweepVerifiesEveryJob)
{
    // The same fuzz programs through the batch engine with the
    // verify pass on: no job may fail verification, and every unique
    // job must be accounted pass or skipped.
    EngineOptions opts;
    opts.verify = true;
    Engine engine(opts);

    std::vector<CompileJob> jobs;
    const int cases = std::max(numCases() / 2, 1);
    for (int c = 0; c < cases; ++c) {
        Rng rng(baseSeed() * 13000003 + c);
        const int num_qubits = rng.uniformInt(3, 5);
        auto blocks = randomProgram(rng, num_qubits, false);
        auto hw = std::make_shared<const CouplingGraph>(
            randomDevice(rng, num_qubits + 1));
        for (const auto &id : generalPipelines()) {
            CompileJob job;
            job.name = "fuzz-" + std::to_string(c) + "/" + id;
            job.blocks = blocks;
            job.hw = hw;
            job.pipeline = PipelineRegistry::instance().create(id);
            jobs.push_back(std::move(job));
        }
    }
    const size_t total = jobs.size();
    engine.compileAll(std::move(jobs));

    EXPECT_EQ(engine.metrics().count("verify.fail"), 0u);
    EXPECT_EQ(engine.metrics().count("verify.pass") +
                  engine.metrics().count("verify.skipped"),
              total);
}

} // namespace
} // namespace tetris
