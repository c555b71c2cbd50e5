/**
 * @file
 * End-to-end compiler tests: scheduling policies, full-pipeline
 * functional equivalence, stats accounting, and option ablations.
 */

#include <gtest/gtest.h>

#include "chem/uccsd.hh"
#include "core/compiler.hh"
#include "hardware/topologies.hh"
#include "test_util.hh"

namespace tetris
{
namespace
{

/** A small random UCCSD-like workload. */
std::vector<PauliBlock>
smallWorkload(int num_qubits, int num_blocks, uint64_t seed)
{
    Rng rng(seed);
    JordanWignerEncoding enc(num_qubits);
    std::vector<PauliBlock> blocks;
    for (int i = 0; i < num_blocks; ++i) {
        if (rng.bernoulli(0.3)) {
            int a = rng.uniformInt(0, num_qubits - 2);
            int b = rng.uniformInt(a + 1, num_qubits - 1);
            blocks.push_back(
                makeSingleExcitation(enc, a, b, rng.uniform(0.1, 1.0)));
        } else {
            auto picks = rng.sampleIndices(num_qubits, 4);
            std::vector<int> m(picks.begin(), picks.end());
            std::sort(m.begin(), m.end());
            blocks.push_back(makeDoubleExcitation(
                enc, m[0], m[1], m[2], m[3], rng.uniform(0.1, 1.0)));
        }
    }
    return blocks;
}

TEST(Compiler, EquivalenceOnLine)
{
    auto blocks = smallWorkload(6, 4, 1);
    CouplingGraph hw = lineTopology(7);
    CompileResult res = compileTetris(blocks, hw);
    Rng rng(2);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, res, hw.numQubits(), rng));
    EXPECT_TRUE(test::isHardwareCompliant(res.circuit, hw));
}

TEST(Compiler, EquivalenceOnHeavyHexAllSchedulers)
{
    auto blocks = smallWorkload(6, 5, 3);
    CouplingGraph hw = heavyHexTopology(2, 5);
    for (auto sched : {SchedulerKind::InputOrder,
                       SchedulerKind::Lexicographic,
                       SchedulerKind::Lookahead}) {
        TetrisOptions opts;
        opts.scheduler = sched;
        CompileResult res = compileTetris(blocks, hw, opts);
        Rng rng(4);
        EXPECT_TRUE(test::checkCompiledEquivalence(blocks, res,
                                                   hw.numQubits(), rng))
            << "scheduler " << static_cast<int>(sched);
        EXPECT_TRUE(test::isHardwareCompliant(res.circuit, hw));
    }
}

TEST(Compiler, EquivalenceWithoutPeephole)
{
    auto blocks = smallWorkload(5, 3, 5);
    CouplingGraph hw = gridTopology(2, 3);
    TetrisOptions opts;
    opts.runPeephole = false;
    CompileResult res = compileTetris(blocks, hw, opts);
    Rng rng(6);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, res, hw.numQubits(), rng));
}

TEST(Compiler, PeepholeNeverIncreasesGateCount)
{
    auto blocks = smallWorkload(6, 6, 7);
    CouplingGraph hw = heavyHexTopology(2, 5);
    TetrisOptions with, without;
    without.runPeephole = false;
    CompileResult a = compileTetris(blocks, hw, with);
    CompileResult b = compileTetris(blocks, hw, without);
    EXPECT_LE(a.stats.totalGateCount, b.stats.totalGateCount);
}

TEST(Compiler, BlockOrderIsAPermutation)
{
    auto blocks = smallWorkload(6, 8, 9);
    CompileResult res = compileTetris(blocks, lineTopology(8));
    ASSERT_EQ(res.blockOrder.size(), blocks.size());
    std::vector<bool> seen(blocks.size(), false);
    for (size_t idx : res.blockOrder) {
        ASSERT_LT(idx, blocks.size());
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
    }
}

TEST(Compiler, LookaheadStartsWithLongestActiveBlock)
{
    auto blocks = smallWorkload(7, 6, 11);
    TetrisOptions opts;
    opts.scheduler = SchedulerKind::Lookahead;
    CompileResult res = compileTetris(blocks, lineTopology(8), opts);
    size_t first = res.blockOrder.front();
    for (const auto &b : blocks) {
        EXPECT_LE(b.activeLength(), blocks[first].activeLength());
    }
}

TEST(Compiler, StatsAreInternallyConsistent)
{
    auto blocks = smallWorkload(6, 5, 13);
    CompileResult res = compileTetris(blocks, heavyHexTopology(2, 5));
    const CompileStats &s = res.stats;
    EXPECT_EQ(s.totalGateCount, s.cnotCount + s.oneQubitCount);
    EXPECT_EQ(s.swapCnots, 3 * s.swapCount);
    EXPECT_EQ(s.logicalCnots + s.swapCnots, s.cnotCount);
    EXPECT_GE(s.cancelRatio, 0.0);
    EXPECT_LE(s.cancelRatio, 1.0);
    EXPECT_EQ(s.originalCnots, naiveCnotCount(blocks));
    EXPECT_GT(s.depth, 0u);
    EXPECT_GT(s.durationDt, 0.0);
    EXPECT_GE(s.compileSeconds, 0.0);
}

TEST(Compiler, CancelsMoreThanHalfOnSimilarBlocks)
{
    // Long common Z chains: Tetris should cancel a large fraction of
    // the logical CNOTs.
    JordanWignerEncoding enc(10);
    std::vector<PauliBlock> blocks;
    blocks.push_back(makeDoubleExcitation(enc, 0, 5, 6, 9, 0.3));
    blocks.push_back(makeDoubleExcitation(enc, 0, 5, 6, 9, 0.5));
    CompileResult res = compileTetris(blocks, lineTopology(10));
    EXPECT_GT(res.stats.cancelRatio, 0.5);
}

TEST(Compiler, RejectsOversizedWorkload)
{
    auto blocks = smallWorkload(6, 2, 15);
    EXPECT_DEATH({ compileTetris(blocks, lineTopology(4)); },
                 "more qubits");
}

TEST(Compiler, SwapWeightShiftsSwapVsCancelTradeoff)
{
    // Higher w should never increase the SWAP count.
    auto blocks = smallWorkload(8, 10, 17);
    CouplingGraph hw = heavyHexTopology(3, 5);
    TetrisOptions low, high;
    low.synthesis.swapWeight = 0.1;
    high.synthesis.swapWeight = 100.0;
    CompileResult a = compileTetris(blocks, hw, low);
    CompileResult b = compileTetris(blocks, hw, high);
    EXPECT_GE(a.stats.swapCount + 2, b.stats.swapCount)
        << "high swap weight should not cost many extra SWAPs";
}

TEST(Compiler, DeterministicAcrossRuns)
{
    auto blocks = smallWorkload(6, 6, 19);
    CouplingGraph hw = heavyHexTopology(2, 5);
    EXPECT_TRUE(test::sameImage(compileTetris(blocks, hw),
                                compileTetris(blocks, hw)));
}

class CompilerLookaheadK : public ::testing::TestWithParam<int>
{
};

TEST_P(CompilerLookaheadK, AllKValuesStayCorrect)
{
    auto blocks = smallWorkload(6, 6, 21);
    CouplingGraph hw = heavyHexTopology(2, 5);
    TetrisOptions opts;
    opts.lookaheadK = GetParam();
    CompileResult res = compileTetris(blocks, hw, opts);
    Rng rng(22);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, res, hw.numQubits(), rng));
}

INSTANTIATE_TEST_SUITE_P(KSweep, CompilerLookaheadK,
                         ::testing::Values(1, 2, 5, 10, 22));

} // namespace
} // namespace tetris
