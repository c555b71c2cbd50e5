/**
 * @file
 * Golden corpus: the quick sweeps of Table II (16 jobs), Fig. 23 (36
 * QAOA jobs) and Fig. 19 (the lookahead K sweep, plus a program wider
 * than one 64-qubit bit-plane word), and the routed baselines (naive,
 * T|Ket>, PCOAST, max-cancel) over Table II's quick workloads, pinned
 * job by job. The jobs come from the sweep table the bench binaries
 * run (bench/sweeps.hh), whose invariants are checked here too.
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
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chem/uccsd.hh"
#include "common/hash.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "serialize/artifact.hh"
#include "sweeps.hh"

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

/** fig19_lookahead_sweep's quick set, then the first 60 blocks of
 *  UCC-70 on a 9x9 grid at K = 1, 10 and 22: 15 of them have leaf
 *  qubits >= 64, so the scheduler's similarity runs over two-word
 *  bit-planes. */
std::vector<CompileJob>
fig19QuickJobs()
{
    bench::Sweep sweep = bench::fig19Sweep(true);
    std::vector<CompileJob> jobs = sweep.jobs();
    auto wide = buildSyntheticUcc(70, 1070);
    wide.resize(60);
    sweep.workloads = {{"ucc/UCC-70x60", std::move(wide),
                        std::make_shared<const CouplingGraph>(
                            gridTopology(9, 9))}};
    std::erase_if(sweep.stacks, [](const bench::Stack &s) {
        return s.name != "k=1" && s.name != "k=10" && s.name != "k=22";
    });
    for (CompileJob &job : sweep.jobs())
        jobs.push_back(std::move(job));
    return jobs;
}

TEST(Golden, QuickSweepsAreUnchanged)
{
    const struct
    {
        const char *corpus;
        std::vector<CompileJob> (*jobs)();
    } sweeps[] = {
        {TETRIS_TEST_DATA_DIR "/golden/table2_quick.txt",
         [] { return bench::table2Sweep(true).jobs(); }},
        {TETRIS_TEST_DATA_DIR "/golden/fig23_quick.txt",
         [] { return bench::fig23Sweep(true).jobs(); }},
        {TETRIS_TEST_DATA_DIR "/golden/fig19_quick.txt", fig19QuickJobs},
        {TETRIS_TEST_DATA_DIR "/golden/routed_quick.txt",
         [] { return bench::routedSweep(true).jobs(); }},
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

/**
 * Every figure's quick sweep, built without compiling: job names are
 * unique within a sweep, every job has a device and a pipeline, and
 * a stack label names one configuration everywhere -- each (label,
 * pipeline id) pair has one options hash across all sweeps.
 */
TEST(Golden, SweepTableInvariants)
{
    const std::pair<const char *, bench::Sweep (*)(bool)> figures[] = {
        {"table1", [](bool) { return bench::table1Sweep(); }},
        {"table2", bench::table2Sweep},
        {"routed", bench::routedSweep},
        {"fig2", bench::fig2Sweep},
        {"fig14", bench::fig14Sweep},
        {"fig15", bench::fig15Sweep},
        {"fig16", bench::fig16Sweep},
        {"fig17", bench::fig17Sweep},
        {"fig18", bench::fig18Sweep},
        {"fig19", bench::fig19Sweep},
        {"fig20", bench::fig20Sweep},
        {"fig21", bench::fig21Sweep},
        {"fig22", bench::fig22Sweep},
        {"fig23", bench::fig23Sweep},
        {"ext_recursive", bench::extRecursiveSweep},
    };
    std::map<std::pair<std::string, std::string>, uint64_t> hashes;
    for (const auto &[figure, build] : figures) {
        SCOPED_TRACE(figure);
        const bench::Sweep sweep = build(true);
        std::set<std::string> names;
        for (const CompileJob &job : sweep.jobs()) {
            EXPECT_TRUE(names.insert(job.name).second)
                << job.name << " repeats";
            EXPECT_NE(job.hw, nullptr) << job.name;
            EXPECT_NE(job.pipeline, nullptr) << job.name;
        }
        EXPECT_FALSE(names.empty());
        for (const bench::Stack &stack : sweep.stacks) {
            ASSERT_NE(stack.pipeline, nullptr) << stack.name;
            const auto key = std::pair(stack.name, stack.pipeline->name());
            const uint64_t hash = stack.pipeline->optionsHash();
            EXPECT_EQ(hashes.emplace(key, hash).first->second, hash)
                << "stack " << stack.name << " (" << key.second
                << ") is configured differently in another sweep";
        }
    }
}

} // namespace
} // namespace tetris
