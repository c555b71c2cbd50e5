/**
 * @file
 * Core synthesis tests: Tetris-IR construction, Algorithm 1 block
 * synthesis (root clustering, leaf attachment, bridging), and
 * simulator-verified functional equivalence on every path.
 */

#include <gtest/gtest.h>

#include "chem/uccsd.hh"
#include "core/synthesis.hh"
#include "core/tetris_ir.hh"
#include "hardware/topologies.hh"
#include "sim/statevector.hh"
#include "test_util.hh"

namespace tetris
{
namespace
{

/** Run one block through the synthesizer and check the unitary. */
void
expectBlockEquivalent(const PauliBlock &block, const CouplingGraph &hw,
                      const SynthesisOptions &opts, uint64_t seed,
                      SynthStats *stats_out = nullptr)
{
    const int num_logical = static_cast<int>(block.numQubits());
    Layout layout(num_logical, hw.numQubits());
    Circuit circ(hw.numQubits());
    BlockSynthesizer synth(hw, opts);
    SynthStats stats;
    TetrisBlock tb(block);
    synth.synthesizeBlock(tb, layout, circ, stats);
    if (stats_out)
        *stats_out = stats;

    CompileResult fake;
    fake.circuit = circ;
    fake.finalLayout = layout;
    Rng rng(seed);
    EXPECT_TRUE(test::checkCompiledEquivalence({block}, fake,
                                               hw.numQubits(), rng));
    EXPECT_TRUE(test::isHardwareCompliant(circ, hw));
}

TEST(TetrisIr, RootLeafSplitMatchesPaperExample)
{
    // Fig. 5: {X0 Y1 z z z, X0 X1 z z z(im), Y0 X1 z z z}.
    std::vector<PauliString> strings = {PauliString::fromText("XYZZZ"),
                                        PauliString::fromText("XXZZZ"),
                                        PauliString::fromText("YXZZZ")};
    TetrisBlock tb(PauliBlock{strings, 0.4});
    EXPECT_EQ(tb.rootSet(), (std::vector<size_t>{0, 1}));
    EXPECT_EQ(tb.leafSet(), (std::vector<size_t>{2, 3, 4}));
    EXPECT_EQ(tb.activeLength(), 5u);
    EXPECT_TRUE(tb.hasUniformRootSupport());
    EXPECT_EQ(tb.leafOp(3), PauliOp::Z);
}

TEST(TetrisIr, TextRendersCommonSectionLowerCase)
{
    std::vector<PauliString> strings = {PauliString::fromText("XYZZZ"),
                                        PauliString::fromText("XXZZZ"),
                                        PauliString::fromText("YXZZZ")};
    TetrisBlock tb(PauliBlock{strings, 0.4});
    std::string text = tb.toText();
    EXPECT_NE(text.find("XYzzz"), std::string::npos);
    // The interior string elides the common section entirely.
    EXPECT_NE(text.find("XX,"), std::string::npos);
}

TEST(TetrisIr, NonUniformRootSupportDetected)
{
    std::vector<PauliString> strings = {PauliString::fromText("XZZ"),
                                        PauliString::fromText("IZZ")};
    TetrisBlock tb(PauliBlock{strings, 0.4});
    EXPECT_FALSE(tb.hasUniformRootSupport());
}

TEST(TetrisIr, SimilarityMatchesEquationOne)
{
    // Blocks with leaf ops Z on {2,3,4} vs Z on {2,3}: C = 2,
    // S = 2 / (3 + 2 - 2) = 2/3.
    std::vector<PauliString> s1 = {PauliString::fromText("XYZZZ"),
                                   PauliString::fromText("YXZZZ")};
    std::vector<PauliString> s2 = {PauliString::fromText("XYZZI"),
                                   PauliString::fromText("YXZZI")};
    TetrisBlock a{PauliBlock{s1, 0.1}};
    TetrisBlock b{PauliBlock{s2, 0.1}};
    // The boundary-string tie-break adds at most 1e-3.
    EXPECT_NEAR(blockSimilarity(a, b), 2.0 / 3.0, 2e-3);
    EXPECT_NEAR(blockSimilarity(a, a), 1.0, 2e-3);
}

TEST(TetrisIr, SimilarityRequiresMatchingOperators)
{
    std::vector<PauliString> s1 = {PauliString::fromText("XYZZ"),
                                   PauliString::fromText("YXZZ")};
    std::vector<PauliString> s2 = {PauliString::fromText("XYXX"),
                                   PauliString::fromText("YXXX")};
    TetrisBlock a{PauliBlock{s1, 0.1}};
    TetrisBlock b{PauliBlock{s2, 0.1}};
    EXPECT_LT(blockSimilarity(a, b), 1e-2);
}

/**
 * Eq. 1 as the scheduler first computed it, kept as the reference:
 * merge the sorted leaf sets and compare leafOp() on each shared
 * qubit, then add the boundary-string tie-break.
 */
double
mergeSimilarity(const TetrisBlock &a, const TetrisBlock &b)
{
    size_t common = 0;
    size_t i = 0, j = 0;
    const auto &la = a.leafSet();
    const auto &lb = b.leafSet();
    while (i < la.size() && j < lb.size()) {
        if (la[i] < lb[j]) {
            ++i;
        } else if (la[i] > lb[j]) {
            ++j;
        } else {
            if (a.leafOp(la[i]) == b.leafOp(lb[j]))
                ++common;
            ++i;
            ++j;
        }
    }
    size_t denom = la.size() + lb.size() - common;
    double eq1 = denom == 0 ? 0.0
                            : static_cast<double>(common) /
                                  static_cast<double>(denom);
    const PauliString &tail = a.block().strings().back();
    const PauliString &head = b.block().strings().front();
    size_t boundary = PauliBlock::commonOperatorCount(tail, head);
    double tie = static_cast<double>(boundary) /
                 static_cast<double>(tail.numQubits() + 1);
    return eq1 + 1e-3 * tie;
}

/**
 * A random block on n qubits whose operators mostly follow
 * `pattern`, so two blocks share leaves with equal and with unequal
 * operators. The first string is the base; later strings re-draw
 * about a fifth of its qubits (the root set). When `pin_edges`, the
 * base keeps the pattern on qubits 63/64 and 127/128 and no string
 * re-draws them, so they are leaves across the word boundaries.
 */
PauliBlock
randomPatternBlock(const std::vector<PauliOp> &pattern, Rng &rng,
                   bool pin_edges)
{
    static constexpr PauliOp kOps[4] = {PauliOp::I, PauliOp::X,
                                        PauliOp::Y, PauliOp::Z};
    const size_t n = pattern.size();
    auto pinned = [&](size_t q) {
        return pin_edges && (q == 63 || q == 64 || q == 127 || q == 128);
    };
    std::vector<PauliOp> base(n);
    for (size_t q = 0; q < n; ++q) {
        base[q] = pinned(q) || rng.uniform() < 0.5
                      ? pattern[q]
                      : kOps[rng.uniformInt(0, 3)];
    }
    std::vector<PauliString> strings{PauliString(base)};
    const int extra = rng.uniformInt(0, 3);
    for (int s = 0; s < extra; ++s) {
        std::vector<PauliOp> ops = base;
        for (size_t q = 0; q < n; ++q) {
            if (!pinned(q) && rng.uniform() < 0.2)
                ops[q] = kOps[rng.uniformInt(0, 3)];
        }
        strings.emplace_back(ops);
    }
    return PauliBlock(std::move(strings), 0.3);
}

TEST(TetrisIr, SimilarityMatchesMergeReference)
{
    for (size_t n : {5, 63, 64, 65, 127, 130}) {
        SCOPED_TRACE(n);
        Rng rng(0xe91u + n);
        std::vector<PauliOp> pattern(n);
        for (auto &op : pattern)
            op = static_cast<PauliOp>(rng.uniformInt(1, 3));
        std::vector<TetrisBlock> ir;
        for (int b = 0; b < 24; ++b)
            ir.emplace_back(randomPatternBlock(pattern, rng, b % 2 == 0));

        size_t edge_leaves = 0, edge_qubits = 0;
        for (size_t q : {63, 64, 127, 128})
            edge_qubits += q < n;
        const LeafSignatures signatures(ir);
        for (size_t a = 0; a < ir.size(); ++a) {
            for (size_t b = 0; b < ir.size(); ++b) {
                const double want = mergeSimilarity(ir[a], ir[b]);
                EXPECT_EQ(blockSimilarity(ir[a], ir[b]), want)
                    << a << " -> " << b;
                EXPECT_EQ(signatures.similarity(a, b), want)
                    << a << " -> " << b;
            }
            for (size_t q : ir[a].leafSet())
                edge_leaves += q == 63 || q == 64 || q == 127 || q == 128;
        }
        // Each of the 12 pinned blocks has a leaf on every edge qubit.
        EXPECT_GE(edge_leaves, 12 * edge_qubits);
    }
}

TEST(Synthesis, SingleStringOnLine)
{
    SynthesisOptions opts;
    PauliBlock b({PauliString::fromText("XZZY")}, 0.7);
    expectBlockEquivalent(b, lineTopology(4), opts, 1);
}

TEST(Synthesis, SingleQubitString)
{
    SynthesisOptions opts;
    PauliBlock b({PauliString::fromText("IZI")}, 0.7);
    expectBlockEquivalent(b, lineTopology(3), opts, 2);
}

TEST(Synthesis, BlockWithCancellationOnLine)
{
    // Paper Fig. 3: Y Z Z Z Y + X Z Z Z X.
    std::vector<PauliString> strings = {PauliString::fromText("YZZZY"),
                                        PauliString::fromText("XZZZX")};
    PauliBlock b(strings, 0.9);
    SynthesisOptions opts;
    opts.adaptiveFallbackFactor = 0.0;
    SynthStats stats;
    expectBlockEquivalent(b, lineTopology(5), opts, 3, &stats);
    EXPECT_EQ(stats.blocksWithCancellation, 1u);
}

TEST(Synthesis, StructuralCancellationSavesCnots)
{
    // 8-string double-excitation block with Z chains inside both
    // excitation pairs: Tetris emission must beat the naive count.
    JordanWignerEncoding enc(8);
    PauliBlock b = makeDoubleExcitation(enc, 0, 3, 4, 7, 0.5);
    std::vector<PauliBlock> blocks{b};

    SynthesisOptions opts;
    opts.adaptiveFallbackFactor = 0.0;
    CouplingGraph hw = lineTopology(8);
    Layout layout(8, 8);
    Circuit circ(8);
    BlockSynthesizer synth(hw, opts);
    SynthStats stats;
    synth.synthesizeBlock(TetrisBlock(b), layout, circ, stats);
    EXPECT_LT(stats.emittedCx, naiveCnotCount(blocks));
}

TEST(Synthesis, ScatteredStringNeedsSwapsAndStaysCorrect)
{
    // Active qubits at the two ends of a line force SWAP insertion
    // (bridging disabled).
    SynthesisOptions opts;
    opts.enableBridging = false;
    PauliBlock b({PauliString::fromText("ZIIIIZ")}, 0.4);
    SynthStats stats;
    expectBlockEquivalent(b, lineTopology(6), opts, 4, &stats);
    EXPECT_GT(stats.insertedSwaps, 0u);
}

TEST(Synthesis, BlockOnHeavyHex)
{
    JordanWignerEncoding enc(6);
    PauliBlock b = makeDoubleExcitation(enc, 0, 2, 3, 5, 0.8);
    expectBlockEquivalent(b, heavyHexTopology(2, 5), SynthesisOptions{},
                          5);
}

TEST(Synthesis, BlockOnSycamore)
{
    JordanWignerEncoding enc(6);
    PauliBlock b = makeDoubleExcitation(enc, 0, 1, 4, 5, 0.8);
    expectBlockEquivalent(b, sycamoreTopology(3, 3), SynthesisOptions{},
                          6);
}

TEST(Synthesis, BridgingUsesFreeAncillaAndRestoresIt)
{
    // Leaf qubits separated from the root cluster by a free middle
    // qubit: bridging should engage, and equivalence (which demands
    // ancillas end in |0>) must hold.
    std::vector<PauliString> strings = {
        PauliString::fromText("XYZZ"), PauliString::fromText("YXZZ")};
    PauliBlock b(strings, 0.6);
    // 7-qubit line: logicals 0..3 at positions 0..3; positions 4-6
    // free. Leaf set {2,3}.
    SynthesisOptions opts;
    opts.enableBridging = true;
    opts.adaptiveFallbackFactor = 0.0;
    SynthStats stats;
    expectBlockEquivalent(b, lineTopology(7), opts, 7, &stats);
}

TEST(Synthesis, BridgeEngagesAcrossFreeGap)
{
    // Arrange the layout so the leaf qubit is separated from the
    // root cluster by free |0> positions: logicals {0,1} (roots) at
    // positions 0,1; leaf logical 2 moved to position 4; positions
    // 2,3 free. The bridge (cost 2 per hop) beats SWAPs (cost w=3).
    std::vector<PauliString> strings = {PauliString::fromText("XYZ"),
                                        PauliString::fromText("YXZ")};
    PauliBlock b(strings, 0.6);
    CouplingGraph hw = lineTopology(5);

    auto run = [&](bool bridging, SynthStats &stats) {
        Layout layout(3, 5);
        Circuit circ(5);
        // Pre-route the leaf away from the pack; the SWAPs stay in
        // the circuit so equivalence still holds.
        circ.swap(2, 3);
        layout.applySwap(2, 3);
        circ.swap(3, 4);
        layout.applySwap(3, 4);
        SynthesisOptions opts;
        opts.enableBridging = bridging;
        opts.adaptiveFallbackFactor = 0.0;
        BlockSynthesizer synth(hw, opts);
        synth.synthesizeBlock(TetrisBlock(b), layout, circ, stats);
        CompileResult fake;
        fake.circuit = circ;
        fake.finalLayout = layout;
        Rng rng(8);
        EXPECT_TRUE(
            test::checkCompiledEquivalence({b}, fake, 5, rng));
        EXPECT_TRUE(test::isHardwareCompliant(circ, hw));
    };

    SynthStats with_bridge, without_bridge;
    run(true, with_bridge);
    run(false, without_bridge);
    EXPECT_GT(with_bridge.bridgeNodes, 0u);
    EXPECT_EQ(with_bridge.insertedSwaps, 0u);
    EXPECT_GT(without_bridge.insertedSwaps, 0u);
}

TEST(Synthesis, FallbackForNonUniformRootSupport)
{
    std::vector<PauliString> strings = {PauliString::fromText("XZZ"),
                                        PauliString::fromText("IZZ")};
    PauliBlock b(strings, 0.5);
    SynthStats stats;
    expectBlockEquivalent(b, lineTopology(3), SynthesisOptions{}, 10,
                          &stats);
    EXPECT_EQ(stats.blocksFallback, 1u);
}

TEST(Synthesis, SingleLeafChainMatchesClosedFormCancellation)
{
    // k strings over an L-qubit common section with a single leaf
    // tree cancel 2*(L-1)*(k-1)... equivalently the emitted count is
    // naive - savings. Verify the emitted count directly: leaf
    // internal edges emitted twice total instead of per string.
    std::vector<PauliString> strings;
    for (const char *t : {"XYZZZZ", "XXZZZZ", "ZXZZZZ", "YXZZZZ"})
        strings.push_back(PauliString::fromText(t));
    PauliBlock b(strings, 0.3);
    // Line topology, trivial layout: leaf {2..5} contiguous, roots
    // {0,1} contiguous: no swaps at all.
    CouplingGraph hw = lineTopology(6);
    Layout layout(6, 6);
    Circuit circ(6);
    SynthesisOptions opts;
    opts.adaptiveFallbackFactor = 0.0;
    BlockSynthesizer synth(hw, opts);
    SynthStats stats;
    synth.synthesizeBlock(TetrisBlock(b), layout, circ, stats);
    EXPECT_EQ(stats.insertedSwaps, 0u);
    // Per string: 1 connector*2 + 1 root edge*2 = 4; leaf internal
    // edges: 3, emitted twice = 6. Total = 4*4 + 6 = 22.
    EXPECT_EQ(stats.emittedCx, 22u);
    // Naive: 4 strings * 2*(6-1) = 40.
    EXPECT_EQ(naiveCnotCount({b}), 40u);
}

TEST(Synthesis, EstimateRootClusterCostIsZeroWhenClustered)
{
    std::vector<PauliString> strings = {PauliString::fromText("XYZZ"),
                                        PauliString::fromText("YXZZ")};
    TetrisBlock tb(PauliBlock{strings, 0.1});
    CouplingGraph hw = lineTopology(4);
    Layout layout(4, 4);
    BlockSynthesizer synth(hw, SynthesisOptions{});
    // Roots {0,1} adjacent: cost should be minimal (<= 1).
    EXPECT_LE(synth.estimateRootClusterCost(tb, layout), 1);
}

TEST(Synthesis, NegativeSwapWeightPanics)
{
    // The leaf searches' early exit needs w >= 0 (synthesis.hh).
    const CouplingGraph hw = lineTopology(4);
    SynthesisOptions opts;
    opts.swapWeight = -1.0;
    EXPECT_DEATH({ BlockSynthesizer synth(hw, opts); }, "swap weight");
}

class SynthesisRandomBlocks : public ::testing::TestWithParam<int>
{
};

TEST_P(SynthesisRandomBlocks, EquivalentOnRandomDoubles)
{
    const int seed = GetParam();
    Rng rng(seed);
    const int n = 7;
    JordanWignerEncoding enc(n);
    auto picks = rng.sampleIndices(n, 4);
    std::vector<int> m(picks.begin(), picks.end());
    std::sort(m.begin(), m.end());
    PauliBlock b = makeDoubleExcitation(enc, m[0], m[1], m[2], m[3],
                                        rng.uniform(0.1, 1.0));
    expectBlockEquivalent(b, heavyHexTopology(2, 5), SynthesisOptions{},
                          seed * 31 + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisRandomBlocks,
                         ::testing::Range(0, 16));

} // namespace
} // namespace tetris
