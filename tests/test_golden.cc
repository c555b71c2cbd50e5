/**
 * @file
 * Golden corpus: the quick sweeps of Table II (16 jobs), Fig. 23 (36
 * QAOA jobs), Fig. 19 (the lookahead K sweep, plus a program wider
 * than one 64-qubit bit-plane word) and Fig. 20 (the SWAP weight w,
 * the per-hop cost the leaf searches bound their scores with, from
 * 0.1 to 100 on two devices), and the routed baselines (naive,
 * T|Ket>, PCOAST, max-cancel) over Table II's quick workloads, pinned
 * job by job. The jobs come from the sweep table the bench binaries
 * run (bench/sweeps.hh), whose invariants are checked here too.
 *
 * Each row of the data/golden/*_quick.txt files holds one job's
 * CNOT, one-qubit, depth and SWAP counts plus the checksum64 of its
 * .tca image's payload (serialize/artifact.hh), which covers every
 * gate with its angle bits, both layouts, the block order and every
 * stats count; an image holds no timing. So any change to a compiled
 * result fails here, not only a change to its totals. On a mismatch
 * the test prints every actual row of that file in its format;
 * updating the corpus means checking that the new output is intended
 * and pasting those rows into the file.
 *
 * The corpora are compiled twice, on a 4-thread and on a 1-thread
 * engine, and both must match every row: two compiles of a job, at
 * either thread count, encode the same image. Every image also
 * decodes and encodes back to itself, and its decoded gates are the
 * compiled ones bit for bit, so every gate is in the form its
 * compact record assumes.
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
#include <string_view>
#include <utility>
#include <vector>

#include "chem/uccsd.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "serialize/artifact.hh"
#include "serialize/binary.hh"
#include "sweeps.hh"

namespace tetris
{
namespace
{

uint64_t
bits(double d)
{
    return std::bit_cast<uint64_t>(d);
}

/** An image's trailing checksum64, over its whole payload. */
uint64_t
imageChecksum(const std::string &image)
{
    serialize::BinaryReader r(
        std::string_view(image).substr(image.size() - 8));
    return r.u64();
}

/** One corpus row: "<job> <cnot> <1q> <depth> <swaps> <checksum>". */
std::string
formatRow(const std::string &job, const CompileResult &r,
          const std::string &image)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s %zu %zu %zu %zu %016" PRIx64,
                  job.c_str(), r.stats.cnotCount,
                  r.stats.oneQubitCount, r.stats.depth,
                  r.stats.swapCount, imageChecksum(image));
    return buf;
}

/**
 * The image decodes and encodes back to itself, and the decoded
 * gates are the compiled ones bit for bit: a one-qubit gate has
 * q1 = -1 and a kind without an angle has angle 0.0, the form the
 * compact records give back.
 */
void
expectCodecRoundTrip(const std::string &job, const CompileResult &r,
                     const std::string &image)
{
    SCOPED_TRACE(job);
    CompileResult back;
    ASSERT_TRUE(serialize::decodeArtifact(image, 1, back));
    EXPECT_TRUE(serialize::encodeArtifact(1, back) == image);
    ASSERT_EQ(back.circuit.size(), r.circuit.size());
    for (size_t i = 0; i < r.circuit.size(); ++i) {
        const Gate &a = r.circuit.gates()[i];
        const Gate &b = back.circuit.gates()[i];
        ASSERT_TRUE(a.kind == b.kind && a.q0 == b.q0 && a.q1 == b.q1 &&
                    bits(a.angle) == bits(b.angle))
            << "gate " << i << ": " << a.toString() << " came back as "
            << b.toString();
    }
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

/** Compile the five corpora on an engine of `threads` workers and
 *  check every row and every image's round trip. */
void
expectCorporaOnThreads(int threads)
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
        {TETRIS_TEST_DATA_DIR "/golden/fig20_quick.txt",
         [] { return bench::fig20Sweep(true).jobs(); }},
    };
    EngineOptions opts;
    opts.numThreads = threads;
    for (const auto &sweep : sweeps) {
        SCOPED_TRACE(sweep.corpus);
        std::vector<CompileJob> jobs = sweep.jobs();
        std::vector<std::string> names;
        for (const CompileJob &job : jobs)
            names.push_back(job.name);

        Engine engine(opts);
        auto results = engine.compileAll(std::move(jobs));
        ASSERT_EQ(results.size(), names.size());

        const auto expected = readCorpus(sweep.corpus);
        EXPECT_EQ(expected.size(), names.size()) << "rows in corpus";
        std::string actual_rows;
        bool all_match = expected.size() == names.size();
        for (size_t i = 0; i < names.size(); ++i) {
            ASSERT_TRUE(results[i]) << names[i];
            const std::string image =
                serialize::encodeArtifact(1, *results[i]);
            std::string row = formatRow(names[i], *results[i], image);
            actual_rows += row + "\n";
            auto it = expected.find(names[i]);
            std::string want =
                it == expected.end() ? "(missing)" : it->second;
            EXPECT_EQ(row, want) << names[i];
            all_match = all_match && row == want;
            expectCodecRoundTrip(names[i], *results[i], image);
        }
        if (!all_match)
            std::printf("actual rows of %s:\n%s", sweep.corpus,
                        actual_rows.c_str());
    }
}

TEST(Golden, QuickSweepsAreUnchanged)
{
    expectCorporaOnThreads(4);
}

TEST(Golden, OneEngineThreadEncodesTheSameImages)
{
    expectCorporaOnThreads(1);
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
