/**
 * @file
 * Router tests: compliance, permutation-aware equivalence, and the
 * two routing strategies.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hardware/topologies.hh"
#include "router/router.hh"
#include "sim/statevector.hh"
#include "test_util.hh"

namespace tetris
{
namespace
{

Circuit
randomLogicalCircuit(int n, int gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        if (rng.bernoulli(0.4)) {
            c.rz(rng.uniformInt(0, n - 1), rng.uniform(-2, 2));
        } else {
            int a = rng.uniformInt(0, n - 1);
            int b = rng.uniformInt(0, n - 1);
            if (a == b)
                b = (b + 1) % n;
            c.cx(a, b);
        }
    }
    return c;
}

/** Routed circuit == logical circuit + final wire permutation. */
void
expectRoutedEquivalent(const Circuit &logical, const RouteResult &routed,
                       const CouplingGraph &hw, uint64_t seed)
{
    EXPECT_TRUE(test::isHardwareCompliant(routed.physical, hw));

    Rng rng(seed);
    Statevector in = Statevector::random(logical.numQubits(), rng);
    Statevector start = test::embedState(in, hw.numQubits());

    Statevector actual = start;
    actual.applyCircuit(routed.physical);

    Statevector expected = start;
    Circuit widened(hw.numQubits());
    for (const auto &g : logical.gates())
        widened.add(g);
    expected.applyCircuit(widened);

    std::vector<int> new_pos(hw.numQubits(), -1);
    std::vector<bool> used(hw.numQubits(), false);
    for (int l = 0; l < logical.numQubits(); ++l) {
        new_pos[l] = routed.finalLayout.physOf(l);
        used[new_pos[l]] = true;
    }
    int next = 0;
    for (int b = 0; b < hw.numQubits(); ++b) {
        if (new_pos[b] >= 0)
            continue;
        while (used[next])
            ++next;
        new_pos[b] = next;
        used[next] = true;
    }
    expected = test::permuteState(expected, new_pos);
    EXPECT_NEAR(actual.overlapWith(expected), 1.0, 1e-8);
}

class RouterBothKinds
    : public ::testing::TestWithParam<std::pair<RouterKind, int>>
{
};

TEST_P(RouterBothKinds, RandomCircuitsStayEquivalent)
{
    auto [kind, seed] = GetParam();
    Circuit logical = randomLogicalCircuit(5, 40, seed);
    CouplingGraph hw = heavyHexTopology(2, 4);
    RouteResult routed = routeCircuit(logical, hw, kind);
    expectRoutedEquivalent(logical, routed, hw, seed + 100);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RouterBothKinds,
    ::testing::Values(std::pair{RouterKind::Greedy, 1},
                      std::pair{RouterKind::Greedy, 2},
                      std::pair{RouterKind::Greedy, 3},
                      std::pair{RouterKind::SabreLite, 1},
                      std::pair{RouterKind::SabreLite, 2},
                      std::pair{RouterKind::SabreLite, 3}));

TEST(Router, NoSwapsWhenAlreadyCompliant)
{
    Circuit logical(3);
    logical.cx(0, 1);
    logical.cx(1, 2);
    RouteResult routed = routeCircuit(logical, lineTopology(3));
    EXPECT_EQ(routed.insertedSwaps, 0u);
    EXPECT_EQ(routed.physical.metrics().cnotCount, 2u);
}

TEST(Router, DistantGateGetsSwaps)
{
    Circuit logical(5);
    logical.cx(0, 4);
    RouteResult routed = routeCircuit(logical, lineTopology(5));
    EXPECT_GT(routed.insertedSwaps, 0u);
    EXPECT_TRUE(
        test::isHardwareCompliant(routed.physical, lineTopology(5)));
}

TEST(Router, SingleQubitGatesFollowTheirQubit)
{
    Circuit logical(4);
    logical.cx(0, 3); // forces movement
    logical.h(0);     // must land on qubit 0's new position
    CouplingGraph hw = lineTopology(4);
    RouteResult routed = routeCircuit(logical, hw);
    expectRoutedEquivalent(logical, routed, hw, 7);
}

TEST(Router, SabreLiteNotWorseThanGreedyOnWindowedWorkload)
{
    // A workload with reuse: lookahead should pay off (or tie).
    Circuit logical(6);
    for (int rep = 0; rep < 4; ++rep) {
        logical.cx(0, 5);
        logical.cx(1, 4);
        logical.cx(0, 5);
        logical.cx(2, 3);
    }
    CouplingGraph hw = lineTopology(6);
    auto greedy = routeCircuit(logical, hw, RouterKind::Greedy);
    auto sabre = routeCircuit(logical, hw, RouterKind::SabreLite);
    EXPECT_LE(sabre.insertedSwaps, greedy.insertedSwaps + 2);
}

} // namespace
} // namespace tetris
