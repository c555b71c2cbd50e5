/**
 * @file
 * Circuit IR tests: metric accounting (CNOT/depth/duration with the
 * paper's SWAP=3 convention), inverse, and SWAP decomposition.
 */

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "sim/statevector.hh"

namespace tetris
{
namespace
{

TEST(Circuit, CountsFollowPaperConventions)
{
    Circuit c(3);
    c.h(0);
    c.rz(1, 0.5);
    c.cx(0, 1);
    c.swap(1, 2);
    const CircuitMetrics m = c.metrics();
    EXPECT_EQ(m.cnotCount, 4u); // 1 CX + 3 per SWAP
    EXPECT_EQ(m.swapCount, 1u);
    EXPECT_EQ(m.oneQubitCount, 2u);
}

TEST(Circuit, DepthCountsSwapAsThreeLayers)
{
    Circuit c(2);
    c.swap(0, 1);
    EXPECT_EQ(c.metrics().depth, 3u);
    Circuit d(2);
    d.cx(0, 1);
    d.cx(0, 1);
    EXPECT_EQ(d.metrics().depth, 2u);
}

TEST(Circuit, DepthUsesCriticalPath)
{
    Circuit c(3);
    c.h(0);
    c.h(1);
    c.h(2); // parallel layer
    c.cx(0, 1);
    EXPECT_EQ(c.metrics().depth, 2u);
}

TEST(Circuit, DurationWeighsGatesByModel)
{
    DurationModel m;
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    EXPECT_DOUBLE_EQ(c.metrics().durationDt, m.oneQubitDt + m.cnotDt);

    Circuit d(2);
    d.h(0);
    d.h(1); // parallel: only one 1Q layer on the critical path
    d.cx(0, 1);
    EXPECT_DOUBLE_EQ(d.metrics().durationDt, m.oneQubitDt + m.cnotDt);
}

TEST(Circuit, InverseUndoesTheCircuit)
{
    Rng rng(17);
    Circuit c(3);
    c.h(0);
    c.s(1);
    c.cx(0, 2);
    c.rz(2, 0.37);
    c.sdg(1);
    c.rx(0, 1.1);
    c.swap(1, 2);

    Statevector sv = Statevector::random(3, rng);
    Statevector orig = sv;
    sv.applyCircuit(c);
    sv.applyCircuit(c.inverse());
    EXPECT_NEAR(sv.overlapWith(orig), 1.0, 1e-9);
}

TEST(Circuit, SwapDecompositionPreservesUnitary)
{
    Rng rng(19);
    Circuit c(3);
    c.h(0);
    c.swap(0, 2);
    c.cx(2, 1);
    c.swap(1, 0);

    Statevector a = Statevector::random(3, rng);
    Statevector b = a;
    a.applyCircuit(c);
    b.applyCircuit(c.withSwapsDecomposed());
    EXPECT_NEAR(a.overlapWith(b), 1.0, 1e-9);
    const CircuitMetrics decomposed = c.withSwapsDecomposed().metrics();
    EXPECT_EQ(decomposed.swapCount, 0u);
    EXPECT_EQ(decomposed.cnotCount, c.metrics().cnotCount);
}

TEST(Circuit, AppendConcatenates)
{
    Circuit a(2), b(2);
    a.h(0);
    b.cx(0, 1);
    a.append(b);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(a.gates()[1].kind, GateKind::CX);
}

TEST(Gate, ToStringFormats)
{
    EXPECT_EQ(Gate::cx(3, 5).toString(), "CX 3 5");
    EXPECT_EQ(Gate::h(2).toString(), "H 2");
    EXPECT_EQ(Gate::rz(1, 0.5).toString(), "RZ 1 (0.5)");
}

TEST(Gate, ActsOnChecksBothWires)
{
    Gate g = Gate::cx(1, 4);
    EXPECT_TRUE(g.actsOn(1));
    EXPECT_TRUE(g.actsOn(4));
    EXPECT_FALSE(g.actsOn(2));
    EXPECT_FALSE(Gate::h(0).actsOn(-1));
}

TEST(DurationModel, SwapIsThreeCnots)
{
    DurationModel m;
    EXPECT_DOUBLE_EQ(m.of(Gate::swap(0, 1)), 3.0 * m.cnotDt);
}

} // namespace
} // namespace tetris
