/**
 * @file
 * End-to-end integration tests on real molecule slices: compile an
 * actual LiH (12-qubit) UCCSD fragment with every compiler in the
 * repository on a 14-qubit device and verify functional equivalence
 * with the statevector simulator -- real Jordan-Wigner chain
 * structure, real block similarity, bridging ancillas and all.
 */

#include <gtest/gtest.h>

#include "baselines/max_cancel.hh"
#include "baselines/naive.hh"
#include "baselines/paulihedral.hh"
#include "chem/uccsd.hh"
#include "core/compiler.hh"
#include "hardware/topologies.hh"
#include "test_util.hh"

namespace tetris
{
namespace
{

/** A deterministic 5-block LiH slice (doubles with long chains). */
std::vector<PauliBlock>
lihSlice(const std::string &encoder)
{
    auto blocks = buildMolecule(moleculeByName("LiH"), encoder);
    // Pick a spread of blocks: first two singles, three doubles.
    std::vector<PauliBlock> slice = {blocks[0], blocks[5], blocks[20],
                                     blocks[45], blocks[80]};
    return slice;
}

class LihSliceCompilers
    : public ::testing::TestWithParam<std::pair<const char *, int>>
{
};

TEST_P(LihSliceCompilers, FunctionallyEquivalent)
{
    auto [encoder, which] = GetParam();
    auto blocks = lihSlice(encoder);
    CouplingGraph hw = heavyHexTopology(2, 8); // 18 qubits (incl. 2
                                               // bridges per gap)
    ASSERT_GE(hw.numQubits(), 13);

    CompileResult res;
    switch (which) {
      case 0:
        res = compileTetris(blocks, hw);
        break;
      case 1:
        res = compilePaulihedral(blocks, hw);
        break;
      case 2:
        res = compileMaxCancel(blocks, hw);
        break;
      case 3:
        res = compileTketProxy(blocks, hw);
        break;
      default:
        res = compilePcoastProxy(blocks, hw);
        break;
    }

    Rng rng(97 + which);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, res, hw.numQubits(), rng));
    EXPECT_TRUE(test::isHardwareCompliant(res.circuit, hw));
    EXPECT_GT(res.stats.cnotCount, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothEncodersAllCompilers, LihSliceCompilers,
    ::testing::Values(std::pair{"jw", 0}, std::pair{"jw", 1},
                      std::pair{"jw", 2}, std::pair{"jw", 3},
                      std::pair{"jw", 4}, std::pair{"bk", 0},
                      std::pair{"bk", 1}, std::pair{"bk", 2}));

TEST(Integration, TetrisBeatsNaiveOnLihSlice)
{
    auto blocks = lihSlice("jw");
    CouplingGraph hw = heavyHexTopology(2, 8);
    CompileResult tet = compileTetris(blocks, hw);
    EXPECT_LT(tet.stats.logicalCnots, naiveCnotCount(blocks));
}

TEST(Integration, FullLihCompilesOnAllBackends)
{
    // Whole-molecule smoke test: 640 strings, three devices.
    auto blocks = buildMolecule(moleculeByName("LiH"), "jw");
    for (const CouplingGraph &hw :
         {ibmIthaca65(), googleSycamore64(), gridTopology(4, 4)}) {
        CompileResult res = compileTetris(blocks, hw);
        EXPECT_TRUE(test::isHardwareCompliant(res.circuit, hw))
            << hw.name();
        EXPECT_GT(res.stats.cancelRatio, 0.2) << hw.name();
    }
}

TEST(Integration, DenserDeviceNeedsFewerSwaps)
{
    auto blocks = buildMolecule(moleculeByName("BeH2"), "jw");
    CompileResult hex = compileTetris(blocks, ibmIthaca65());
    CompileResult syc = compileTetris(blocks, googleSycamore64());
    EXPECT_LT(syc.stats.swapCount, hex.stats.swapCount);
}

} // namespace
} // namespace tetris
