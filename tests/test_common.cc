/**
 * @file
 * Tests for the common utility layer (rng, table/formatting, the
 * log2 latency histogram, the leveled logger) and assorted
 * cross-module edge cases: the pairwise max-cancel bound,
 * statevector construction, and peephole option handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "circuit/peephole.hh"
#include "common/histogram.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "pauli/pauli_block.hh"
#include "sim/statevector.hh"

namespace tetris
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        int v = rng.uniformInt(-3, 7);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, SampleIndicesAreDistinct)
{
    Rng rng(2);
    auto picks = rng.sampleIndices(20, 10);
    std::set<size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 10u);
    for (size_t p : picks)
        EXPECT_LT(p, 20u);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(4);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Format, CountRendering)
{
    EXPECT_EQ(formatCount(8064), "8064");
    EXPECT_EQ(formatCount(21072), "21.1k");
    EXPECT_EQ(formatCount(130.9e6), "130.9M");
}

TEST(Format, PercentRendering)
{
    EXPECT_EQ(formatPercent(-0.313), "-31.3%");
    EXPECT_EQ(formatPercent(0.5), "50.0%");
}

TEST(Histogram, BucketIndexEdges)
{
    EXPECT_EQ(Histogram::bucketIndex(0), 0);
    EXPECT_EQ(Histogram::bucketIndex(1), 1);
    EXPECT_EQ(Histogram::bucketIndex(2), 2);
    EXPECT_EQ(Histogram::bucketIndex(3), 2);
    EXPECT_EQ(Histogram::bucketIndex(4), 3);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11);
    EXPECT_EQ(Histogram::bucketIndex(uint64_t{1} << 62), 63);
    EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX), 63);

    // Every bucket's upper bound maps back to that bucket — the
    // invariant behind the percentile JSON round trip.
    for (int i = 0; i < Histogram::kBuckets; ++i)
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketUpperBound(i)),
                  i)
            << "bucket " << i;
}

TEST(Histogram, RecordAndDerivedStats)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u); // empty -> 0, not garbage

    h.record(0);
    h.record(1);
    h.record(100);
    h.record(1000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1101u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(Histogram::bucketIndex(100)), 1u);

    // Percentiles are bucket upper bounds clamped to the max, and
    // weakly increase in p.
    EXPECT_EQ(h.percentile(0.0),
              Histogram::bucketUpperBound(0));
    EXPECT_EQ(h.percentile(1.0), 1000u);
    uint64_t last = 0;
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        uint64_t v = h.percentile(p);
        EXPECT_GE(v, last) << "p=" << p;
        last = v;
    }
}

TEST(Histogram, PercentilesBoundTheSamples)
{
    // p50/p90/p99 of a known distribution land in the right buckets:
    // 100 samples of value 10 (bucket 4, upper 15) plus 5 of value
    // 1000 (bucket 10, upper 1023, clamped to the max of 1000).
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.record(10);
    for (int i = 0; i < 5; ++i)
        h.record(1000);
    EXPECT_EQ(h.percentile(0.50), 15u);
    EXPECT_EQ(h.percentile(0.90), 15u);
    EXPECT_EQ(h.percentile(0.99), 1000u);
}

TEST(Histogram, MergeAndClear)
{
    Histogram a, b;
    a.record(5);
    a.record(7);
    b.record(1000000);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 1000012u);
    EXPECT_EQ(a.max(), 1000000u);
    EXPECT_EQ(a.percentile(1.0), 1000000u);

    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.sum(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_EQ(a.percentile(0.99), 0u);
}

TEST(Histogram, ConcurrentRecordingLosesNothing)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    Histogram h;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&h, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<uint64_t>(t * 1000 + i));
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(h.count(),
              static_cast<uint64_t>(kThreads * kPerThread));
    uint64_t bucket_total = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i)
        bucket_total += h.bucketCount(i);
    EXPECT_EQ(bucket_total, h.count());
}

TEST(Log, ParseLevelNamesAndNumbers)
{
    bool ok = false;
    EXPECT_EQ(parseLogLevel("debug", ok), LogLevel::Debug);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseLogLevel("info", ok), LogLevel::Info);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseLogLevel("warn", ok), LogLevel::Warn);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseLogLevel("error", ok), LogLevel::Error);
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseLogLevel("off", ok), LogLevel::Off);
    EXPECT_TRUE(ok);
    // Strict: names only, exact case — matching the other TETRIS_*
    // env knobs' refuse-don't-guess parsing.
    parseLogLevel("WARN", ok);
    EXPECT_FALSE(ok);
    parseLogLevel("nonsense", ok);
    EXPECT_FALSE(ok);
    parseLogLevel("", ok);
    EXPECT_FALSE(ok);
}

TEST(Log, LevelGatesEmission)
{
    LogLevel saved = logLevel();
    setLogLevel(LogLevel::Error);
    EXPECT_FALSE(logEnabled(LogLevel::Debug));
    EXPECT_FALSE(logEnabled(LogLevel::Warn));
    EXPECT_TRUE(logEnabled(LogLevel::Error));
    // Suppressed calls must be safe no-ops (and cheap).
    logDebug("suppressed ", 1, " message");
    logWarn("suppressed too");

    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(logEnabled(LogLevel::Debug));
    setLogLevel(LogLevel::Off);
    EXPECT_FALSE(logEnabled(LogLevel::Error));
    setLogLevel(saved);
}

TEST(MaxCancelBound, SimplePairs)
{
    // Two strings sharing ZZ on qubits 1,2: bound = 2*(2-1) = 2.
    std::vector<PauliBlock> blocks{PauliBlock(
        {PauliString::fromText("XZZI"), PauliString::fromText("YZZI")},
        0.1)};
    EXPECT_EQ(maxCancelCnotBound(blocks), 2u);
}

TEST(MaxCancelBound, NoSharedOperatorsNoBound)
{
    std::vector<PauliBlock> blocks{PauliBlock(
        {PauliString::fromText("XXII"), PauliString::fromText("IIZZ")},
        0.1)};
    EXPECT_EQ(maxCancelCnotBound(blocks), 0u);
}

TEST(MaxCancelBound, CrossesBlockBoundaries)
{
    PauliBlock a({PauliString::fromText("XZZZ")}, 0.1);
    PauliBlock b({PauliString::fromText("YZZZ")}, 0.2);
    // One boundary, common = {1,2,3} -> 2*(3-1) = 4.
    EXPECT_EQ(maxCancelCnotBound({a, b}), 4u);
}

TEST(Statevector, FromAmplitudesValidatesLength)
{
    std::vector<Statevector::Amplitude> amp(4, 0.0);
    amp[2] = 1.0;
    Statevector sv = Statevector::fromAmplitudes(amp);
    EXPECT_EQ(sv.numQubits(), 2);
    EXPECT_NEAR(sv.probZero(0), 1.0, 1e-12);
    EXPECT_NEAR(sv.probZero(1), 0.0, 1e-12);
}

TEST(Peephole, ZeroPassesLeavesCircuitAlone)
{
    Circuit c(1);
    c.h(0);
    c.h(0);
    PeepholeOptions opts;
    opts.maxPasses = 0;
    EXPECT_EQ(peepholeOptimize(c, nullptr, opts).size(), 2u);
}

TEST(Peephole, NonCommutativeModeStillCancelsAdjacent)
{
    Circuit c(2);
    c.cx(0, 1);
    c.cx(0, 1);
    c.cx(0, 1); // odd count: one must survive
    PeepholeOptions opts;
    opts.commutationAware = false;
    Circuit r = peepholeOptimize(c, nullptr, opts);
    EXPECT_EQ(r.size(), 1u);
}

TEST(Peephole, TinyScanWindowLimitsSearch)
{
    Circuit c(2);
    c.cx(0, 1);
    c.rz(0, 0.1);
    c.rz(0, 0.2);
    c.rz(0, 0.3);
    c.cx(0, 1);
    PeepholeOptions narrow;
    narrow.scanWindow = 1;
    // The CX pair needs to hop 1..3 diagonal gates (they merge over
    // passes); with window 1 the partner may remain out of reach but
    // the result must still be a valid sub-circuit.
    Circuit r = peepholeOptimize(c, nullptr, narrow);
    EXPECT_LE(r.size(), c.size());
}

} // namespace
} // namespace tetris
