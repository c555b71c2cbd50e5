/**
 * @file
 * Golden corpus: the quick sweeps of Table II (the 16 jobs
 * table2_main builds with TETRIS_BENCH_QUICK=1), Fig. 23 (the 36
 * QAOA jobs fig23_qaoa builds in the same mode) and Fig. 19 (the
 * lookahead K sweep, plus a program wider than one 64-qubit
 * bit-plane word), and the routed baselines (naive, T|Ket>, PCOAST,
 * max-cancel) over Table II's quick workloads, pinned job by job.
 *
 * Each row of the data/golden/*_quick.txt files holds
 * one job's CNOT, one-qubit, depth and SWAP counts plus an FNV-1a
 * hash over its gate sequence (kind, q0, q1) and final layout, so any
 * change to a compiled circuit fails here, not only a change to its
 * totals. On a mismatch the test prints every actual row of that file
 * in its format; updating the corpus means checking that the new
 * output is intended and pasting those rows into the file.
 *
 * Every result of the four corpora also round-trips through the .tca
 * codec (serialize/artifact.hh) and must come back bit for bit, and
 * every gate must be in the form its compact record assumes.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chem/uccsd.hh"
#include "common/hash.hh"
#include "core/pipeline_adapters.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "qaoa/qaoa.hh"
#include "serialize/artifact.hh"

namespace tetris
{
namespace
{

/** Hash of what the circuit does: gate sequence, then final layout. */
uint64_t
circuitHash(const CompileResult &r)
{
    uint64_t h = kFnvOffset;
    for (const Gate &g : r.circuit.gates()) {
        h = fnvMix(h, static_cast<uint8_t>(g.kind));
        h = fnvMix(h, static_cast<int32_t>(g.q0));
        h = fnvMix(h, static_cast<int32_t>(g.q1));
    }
    for (int p : r.finalLayout.toPhysical())
        h = fnvMix(h, static_cast<int32_t>(p));
    return h;
}

/** One corpus row: "<job> <cnot> <1q> <depth> <swaps> <hash>". */
std::string
formatRow(const std::string &job, const CompileResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s %zu %zu %zu %zu %016" PRIx64,
                  job.c_str(), r.stats.cnotCount,
                  r.stats.oneQubitCount, r.stats.depth,
                  r.stats.swapCount, circuitHash(r));
    return buf;
}

uint64_t
bits(double d)
{
    return std::bit_cast<uint64_t>(d);
}

/**
 * Round-trip one result through the .tca codec and compare every
 * field bit for bit. Each gate must also be in the form the compact
 * records assume: a one-qubit gate has q1 = -1 and a kind without an
 * angle has angle 0.0, since those are what a decode gives back.
 */
void
expectCodecRoundTrip(const std::string &job, const CompileResult &r)
{
    SCOPED_TRACE(job);
    CompileResult back;
    ASSERT_TRUE(serialize::decodeArtifact(serialize::encodeArtifact(1, r),
                                          1, back));
    ASSERT_EQ(back.circuit.numQubits(), r.circuit.numQubits());
    ASSERT_EQ(back.circuit.size(), r.circuit.size());
    for (size_t i = 0; i < r.circuit.size(); ++i) {
        const Gate &a = r.circuit.gates()[i];
        const Gate &b = back.circuit.gates()[i];
        ASSERT_TRUE(a.isTwoQubit() || a.q1 == -1) << "gate " << i;
        ASSERT_TRUE(takesAngle(a.kind) || bits(a.angle) == 0)
            << "gate " << i;
        ASSERT_TRUE(a.kind == b.kind && a.q0 == b.q0 && a.q1 == b.q1 &&
                    bits(a.angle) == bits(b.angle))
            << "gate " << i << ": " << a.toString() << " came back as "
            << b.toString();
    }
    EXPECT_EQ(back.initialLayout, r.initialLayout);
    EXPECT_EQ(back.finalLayout, r.finalLayout);
    EXPECT_EQ(back.blockOrder, r.blockOrder);
    EXPECT_EQ(back.cancelled, r.cancelled);

    const CompileStats &s = r.stats;
    const CompileStats &t = back.stats;
    EXPECT_EQ(t.cnotCount, s.cnotCount);
    EXPECT_EQ(t.oneQubitCount, s.oneQubitCount);
    EXPECT_EQ(t.totalGateCount, s.totalGateCount);
    EXPECT_EQ(t.depth, s.depth);
    EXPECT_EQ(bits(t.durationDt), bits(s.durationDt));
    EXPECT_EQ(t.swapCount, s.swapCount);
    EXPECT_EQ(t.swapCnots, s.swapCnots);
    EXPECT_EQ(t.logicalCnots, s.logicalCnots);
    EXPECT_EQ(t.originalCnots, s.originalCnots);
    EXPECT_EQ(bits(t.cancelRatio), bits(s.cancelRatio));
    EXPECT_EQ(bits(t.compileSeconds), bits(s.compileSeconds));
    EXPECT_EQ(bits(t.scheduleSeconds), bits(s.scheduleSeconds));
    EXPECT_EQ(bits(t.synthSeconds), bits(s.synthSeconds));
    EXPECT_EQ(bits(t.peepholeSeconds), bits(s.peepholeSeconds));
    EXPECT_EQ(t.synthesis.insertedSwaps, s.synthesis.insertedSwaps);
    EXPECT_EQ(t.synthesis.emittedCx, s.synthesis.emittedCx);
    EXPECT_EQ(t.synthesis.bridgeNodes, s.synthesis.bridgeNodes);
    EXPECT_EQ(t.synthesis.blocksWithCancellation,
              s.synthesis.blocksWithCancellation);
    EXPECT_EQ(t.synthesis.blocksFallback, s.synthesis.blocksFallback);
}

/** Corpus rows keyed by job name; '#' lines are comments. */
std::map<std::string, std::string>
readCorpus(const std::string &path)
{
    std::map<std::string, std::string> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string job;
        fields >> job;
        rows[job] = line;
    }
    return rows;
}

CompileJob
makeJob(std::string name, std::vector<PauliBlock> blocks,
        std::shared_ptr<const CouplingGraph> hw, PipelinePtr pipeline)
{
    CompileJob job;
    job.name = std::move(name);
    job.blocks = std::move(blocks);
    job.hw = std::move(hw);
    job.pipeline = std::move(pipeline);
    return job;
}

using Workload = std::pair<std::string, std::vector<PauliBlock>>;

/** table2_main's quick workloads: the first three molecules under
 *  both encoders, then UCC-10 and UCC-15 with their fixed seeds. */
std::vector<Workload>
table2QuickWorkloads()
{
    std::vector<Workload> workloads;
    for (const char *enc : {"jw", "bk"}) {
        for (size_t i = 0; i < 3; ++i) {
            const MoleculeSpec &spec = moleculeBenchmarks()[i];
            workloads.emplace_back(std::string(enc) + "/" + spec.name,
                                   buildMolecule(spec, enc));
        }
    }
    for (int n : {10, 15}) {
        workloads.emplace_back("ucc/UCC-" + std::to_string(n),
                               buildSyntheticUcc(n, 1000 + n));
    }
    return workloads;
}

/** table2_main's quick set: Paulihedral and Tetris per workload. */
std::vector<CompileJob>
table2QuickJobs()
{
    auto hw = std::make_shared<const CouplingGraph>(ibmIthaca65());
    std::vector<CompileJob> jobs;
    for (const auto &[workload, blocks] : table2QuickWorkloads()) {
        jobs.push_back(makeJob(workload + "/ph", blocks, hw,
                               makePaulihedralPipeline()));
        jobs.push_back(makeJob(workload + "/tetris", blocks, hw,
                               makeTetrisPipeline()));
    }
    return jobs;
}

/** The routed baselines over the same workloads: naive routed and
 *  unrouted (Table I), both T|Ket> flavors, PCOAST, max-cancel
 *  routed, and Fig. 17's unrouted max-cancel bound. */
std::vector<CompileJob>
routedQuickJobs()
{
    auto hw = std::make_shared<const CouplingGraph>(ibmIthaca65());
    NaiveOptions unrouted_naive;
    unrouted_naive.route = false;
    MaxCancelOptions bound;
    bound.route = false;
    bound.logicalPeephole = true;
    const std::pair<const char *, PipelinePtr> stacks[] = {
        {"naive", makeNaivePipeline()},
        {"naive-unrouted", makeNaivePipeline(unrouted_naive)},
        {"tket-o2", makeTketPipeline(TketFlavor::O2)},
        {"tket-o3", makeTketPipeline(TketFlavor::QiskitO3)},
        {"pcoast", makePcoastPipeline()},
        {"max-cancel", makeMaxCancelPipeline()},
        {"max-cancel-bound", makeMaxCancelPipeline(bound)},
    };
    std::vector<CompileJob> jobs;
    for (const auto &[workload, blocks] : table2QuickWorkloads()) {
        for (const auto &[stack, pipeline] : stacks)
            jobs.push_back(
                makeJob(workload + "/" + stack, blocks, hw, pipeline));
    }
    return jobs;
}

/** fig23_qaoa's quick set: every QAOA benchmark graph at seeds 100
 *  and 101 under Paulihedral, 2QAN and qaoa-bridge. */
std::vector<CompileJob>
fig23QuickJobs()
{
    auto hw = std::make_shared<const CouplingGraph>(ibmIthaca65());
    std::vector<CompileJob> jobs;
    for (const auto &spec : qaoaBenchmarks()) {
        for (int s = 0; s < 2; ++s) {
            auto blocks =
                buildQaoaCostBlocks(buildQaoaGraph(spec, 100 + s), 0.35);
            std::string base = spec.name + "/s=" + std::to_string(s);
            jobs.push_back(makeJob(base + "/ph", blocks, hw,
                                   makePaulihedralPipeline()));
            jobs.push_back(makeJob(base + "/2qan", blocks, hw,
                                   makeQaoa2qanPipeline()));
            jobs.push_back(makeJob(base + "/tetris", blocks, hw,
                                   makeQaoaBridgePipeline()));
        }
    }
    return jobs;
}

/** fig19_lookahead_sweep's quick set (the first three molecules
 *  under JW at every K), then the first 60 blocks of UCC-70 on a 9x9
 *  grid: 15 of them have leaf qubits >= 64, so the scheduler's
 *  similarity runs over two-word bit-planes. */
std::vector<CompileJob>
fig19QuickJobs()
{
    auto hw = std::make_shared<const CouplingGraph>(ibmIthaca65());
    std::vector<CompileJob> jobs;
    auto add = [&](const std::string &workload,
                   const std::vector<PauliBlock> &blocks,
                   const std::shared_ptr<const CouplingGraph> &device,
                   int k) {
        TetrisOptions opts;
        opts.lookaheadK = k;
        jobs.push_back(makeJob(workload + "/k=" + std::to_string(k),
                               blocks, device,
                               makeTetrisPipeline(opts)));
    };
    for (size_t i = 0; i < 3; ++i) {
        const MoleculeSpec &spec = moleculeBenchmarks()[i];
        auto blocks = buildMolecule(spec, "jw");
        for (int k : {1, 4, 7, 10, 13, 16, 19, 22})
            add("jw/" + spec.name, blocks, hw, k);
    }
    auto grid = std::make_shared<const CouplingGraph>(gridTopology(9, 9));
    auto wide = buildSyntheticUcc(70, 1070);
    wide.resize(60);
    for (int k : {1, 10, 22})
        add("ucc/UCC-70x60", wide, grid, k);
    return jobs;
}

TEST(Golden, QuickSweepsAreUnchanged)
{
    const struct
    {
        const char *corpus;
        std::vector<CompileJob> (*jobs)();
    } sweeps[] = {
        {TETRIS_TEST_DATA_DIR "/golden/table2_quick.txt", table2QuickJobs},
        {TETRIS_TEST_DATA_DIR "/golden/fig23_quick.txt", fig23QuickJobs},
        {TETRIS_TEST_DATA_DIR "/golden/fig19_quick.txt", fig19QuickJobs},
        {TETRIS_TEST_DATA_DIR "/golden/routed_quick.txt", routedQuickJobs},
    };
    for (const auto &sweep : sweeps) {
        SCOPED_TRACE(sweep.corpus);
        std::vector<CompileJob> jobs = sweep.jobs();
        std::vector<std::string> names;
        for (const CompileJob &job : jobs)
            names.push_back(job.name);

        Engine engine;
        auto results = engine.compileAll(std::move(jobs));
        ASSERT_EQ(results.size(), names.size());

        const auto expected = readCorpus(sweep.corpus);
        EXPECT_EQ(expected.size(), names.size()) << "rows in corpus";
        std::string actual_rows;
        bool all_match = expected.size() == names.size();
        for (size_t i = 0; i < names.size(); ++i) {
            ASSERT_TRUE(results[i]) << names[i];
            std::string row = formatRow(names[i], *results[i]);
            actual_rows += row + "\n";
            auto it = expected.find(names[i]);
            std::string want =
                it == expected.end() ? "(missing)" : it->second;
            EXPECT_EQ(row, want) << names[i];
            all_match = all_match && row == want;
            expectCodecRoundTrip(names[i], *results[i]);
        }
        if (!all_match)
            std::printf("actual rows of %s:\n%s", sweep.corpus,
                        actual_rows.c_str());
    }
}

} // namespace
} // namespace tetris
