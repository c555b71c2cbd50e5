/**
 * @file
 * QAOA tests: graph generators, cost-block construction, the Tetris
 * QAOA bridging pass, and the 2QAN proxy.
 */

#include <gtest/gtest.h>

#include "baselines/paulihedral.hh"
#include "baselines/qaoa_2qan.hh"
#include "core/qaoa_pass.hh"
#include "hardware/topologies.hh"
#include "qaoa/graph.hh"
#include "qaoa/qaoa.hh"
#include "test_util.hh"

namespace tetris
{
namespace
{

TEST(Graph, RandomWithEdgesHasExactCount)
{
    Graph g = Graph::randomWithEdges(16, 25, 7);
    EXPECT_EQ(g.numNodes(), 16);
    EXPECT_EQ(g.numEdges(), 25u);
}

TEST(Graph, RegularHasUniformDegree)
{
    Graph g = Graph::regular(16, 3, 9);
    EXPECT_EQ(g.numEdges(), 24u); // n*d/2
    for (int v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(g.degree(v), 3);
}

TEST(Graph, GeneratorsAreSeedDeterministic)
{
    Graph a = Graph::randomWithEdges(10, 12, 3);
    Graph b = Graph::randomWithEdges(10, 12, 3);
    EXPECT_EQ(a.edges(), b.edges());
    Graph c = Graph::randomWithEdges(10, 12, 4);
    EXPECT_NE(a.edges(), c.edges());
}

TEST(Graph, DensityGeneratorRespectsBounds)
{
    Graph g = Graph::randomDensity(12, 0.0, 1);
    EXPECT_EQ(g.numEdges(), 0u);
    Graph full = Graph::randomDensity(6, 1.0, 1);
    EXPECT_EQ(full.numEdges(), 15u);
}

TEST(Qaoa, BenchmarkSpecsMatchTableOne)
{
    // #Pauli = #edges; Table I: 25/31/40 random, 24/27/30 regular.
    const std::vector<size_t> expect = {25, 31, 40, 24, 27, 30};
    const auto &specs = qaoaBenchmarks();
    ASSERT_EQ(specs.size(), expect.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        Graph g = buildQaoaGraph(specs[i], 1);
        EXPECT_EQ(g.numEdges(), expect[i]) << specs[i].name;
        auto blocks = buildQaoaCostBlocks(g, 0.4);
        EXPECT_EQ(blocks.size(), expect[i]);
    }
}

TEST(Qaoa, CostBlocksAreTwoLocalZ)
{
    Graph g = Graph::regular(8, 3, 2);
    auto blocks = buildQaoaCostBlocks(g, 0.3);
    for (const auto &b : blocks) {
        EXPECT_EQ(b.size(), 1u);
        EXPECT_EQ(b.string(0).weight(), 2u);
        for (size_t q : b.string(0).support())
            EXPECT_EQ(b.string(0).op(q), PauliOp::Z);
    }
}

TEST(Qaoa, LayersHaveTableOneAccounting)
{
    // Table I #1Q = edges (RZ) + n (H) + n (RX).
    Graph g = Graph::randomWithEdges(16, 25, 11);
    Circuit init = qaoaInitialLayer(16, 16);
    Circuit mixer = qaoaMixerLayer(16, 16, 0.2);
    EXPECT_EQ(init.metrics().oneQubitCount +
                  mixer.metrics().oneQubitCount + g.numEdges(),
              57u);
}

TEST(QaoaPass, EquivalentWithoutReuse)
{
    Graph g = Graph::regular(6, 3, 13);
    auto blocks = buildQaoaCostBlocks(g, 0.37);
    CouplingGraph hw = lineTopology(8);
    QaoaPassOptions opts;
    opts.enableQubitReuse = false;
    CompileResult res = compileQaoaTetris(blocks, hw, opts);
    Rng rng(14);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, res, hw.numQubits(), rng));
    EXPECT_TRUE(test::isHardwareCompliant(res.circuit, hw));
}

TEST(QaoaPass, EquivalentWithoutReuseOnHeavyHex)
{
    Graph g = Graph::randomWithEdges(7, 9, 15);
    auto blocks = buildQaoaCostBlocks(g, 0.42);
    CouplingGraph hw = heavyHexTopology(2, 5);
    QaoaPassOptions opts;
    opts.enableQubitReuse = false;
    CompileResult res = compileQaoaTetris(blocks, hw, opts);
    Rng rng(16);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, res, hw.numQubits(), rng));
}

TEST(QaoaPass, ReuseEmitsMeasureAndReset)
{
    Graph g = Graph::regular(8, 3, 17);
    auto blocks = buildQaoaCostBlocks(g, 0.2);
    CouplingGraph hw = heavyHexTopology(2, 5);
    QaoaPassOptions opts;
    opts.enableQubitReuse = true;
    CompileResult res = compileQaoaTetris(blocks, hw, opts);
    size_t measures = 0;
    for (const auto &gate : res.circuit.gates()) {
        if (gate.kind == GateKind::MEASURE)
            ++measures;
    }
    EXPECT_GT(measures, 0u);
    EXPECT_LE(measures, 8u);
    EXPECT_TRUE(test::isHardwareCompliant(res.circuit, hw));
}

TEST(QaoaPass, BridgingReducesSwapCnotsOnSparseLayouts)
{
    // ZZ(0,4) on a ring-8 with only 5 logicals: the direct arc is
    // occupied but the back arc 0-7-6-5-4 is all free ancillas, so
    // bridging avoids every SWAP.
    std::vector<PauliBlock> blocks;
    PauliString s(5);
    s.setOp(0, PauliOp::Z);
    s.setOp(4, PauliOp::Z);
    blocks.push_back(PauliBlock({s}, 0.3));

    CouplingGraph hw = ringTopology(8);
    QaoaPassOptions with, without;
    with.enableQubitReuse = without.enableQubitReuse = false;
    without.enableBridging = false;
    CompileResult a = compileQaoaTetris(blocks, hw, with);
    CompileResult b = compileQaoaTetris(blocks, hw, without);
    EXPECT_EQ(a.stats.swapCount, 0u);
    EXPECT_GT(b.stats.swapCount, 0u);
    Rng rng(18);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, a, hw.numQubits(), rng));
}

TEST(Qaoa2qan, EquivalentAndCompliant)
{
    Graph g = Graph::regular(6, 3, 19);
    auto blocks = buildQaoaCostBlocks(g, 0.51);
    CouplingGraph hw = heavyHexTopology(2, 4);
    CompileResult res = compile2qanProxy(blocks, hw);
    Rng rng(20);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, res, hw.numQubits(), rng));
    EXPECT_TRUE(test::isHardwareCompliant(res.circuit, hw));
}

TEST(Qaoa2qan, AbsorptionKeepsCnotCountBelowSwapPlusGate)
{
    // Two distant gates force movement; absorption should do better
    // than SWAP + separate gate (5 CNOTs per absorbed pair).
    Graph g = Graph::randomWithEdges(6, 8, 21);
    auto blocks = buildQaoaCostBlocks(g, 0.3);
    CouplingGraph hw = lineTopology(6);
    CompileResult res = compile2qanProxy(blocks, hw);
    Rng rng(22);
    EXPECT_TRUE(
        test::checkCompiledEquivalence(blocks, res, hw.numQubits(), rng));
}

TEST(QaoaComparison, TetrisNotWorseThanPaulihedralOnQaoa)
{
    Graph g = Graph::regular(10, 3, 23);
    auto blocks = buildQaoaCostBlocks(g, 0.4);
    CouplingGraph hw = heavyHexTopology(3, 5);
    CompileResult ph = compilePaulihedral(blocks, hw);
    QaoaPassOptions opts;
    CompileResult tet = compileQaoaTetris(blocks, hw, opts);
    EXPECT_LE(tet.stats.cnotCount, ph.stats.cnotCount);
}

} // namespace
} // namespace tetris
