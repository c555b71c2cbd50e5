/**
 * @file
 * Topology, coupling-graph, graph-search and layout tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>

#include "common/rng.hh"
#include "hardware/coupling_graph.hh"
#include "hardware/layout.hh"
#include "hardware/topologies.hh"

namespace tetris
{
namespace
{

TEST(Topologies, LineBasics)
{
    CouplingGraph g = lineTopology(5);
    EXPECT_EQ(g.numQubits(), 5);
    EXPECT_TRUE(g.isConnected());
    EXPECT_EQ(g.distance(0, 4), 4);
    EXPECT_TRUE(g.connected(2, 3));
    EXPECT_FALSE(g.connected(0, 2));
    EXPECT_EQ(g.maxDegree(), 2);
}

TEST(Topologies, RingWrapsAround)
{
    CouplingGraph g = ringTopology(6);
    EXPECT_EQ(g.distance(0, 5), 1);
    EXPECT_EQ(g.distance(0, 3), 3);
}

TEST(Topologies, GridDistancesAreManhattan)
{
    CouplingGraph g = gridTopology(3, 4);
    EXPECT_EQ(g.numQubits(), 12);
    EXPECT_EQ(g.distance(0, 11), 5); // (0,0) -> (2,3)
    EXPECT_EQ(g.maxDegree(), 4);
}

TEST(Topologies, IbmIthacaMatchesPaperBackend)
{
    CouplingGraph g = ibmIthaca65();
    EXPECT_EQ(g.numQubits(), 65);
    EXPECT_TRUE(g.isConnected());
    EXPECT_LE(g.maxDegree(), 3); // heavy-hex property
}

TEST(Topologies, SycamoreMatchesPaperBackend)
{
    CouplingGraph g = googleSycamore64();
    EXPECT_EQ(g.numQubits(), 64);
    EXPECT_TRUE(g.isConnected());
    EXPECT_LE(g.maxDegree(), 4);
}

TEST(Topologies, SycamoreIsDenserThanHeavyHex)
{
    // Average degree comparison drives the Sec. VI-E discussion.
    CouplingGraph hh = ibmIthaca65();
    CouplingGraph sy = googleSycamore64();
    double hh_deg = 2.0 * hh.edges().size() / hh.numQubits();
    double sy_deg = 2.0 * sy.edges().size() / sy.numQubits();
    EXPECT_GT(sy_deg, hh_deg);
}

TEST(Topologies, HeavyHexBridgeQubitsHaveDegreeTwo)
{
    CouplingGraph g = heavyHexTopology(3, 7);
    int deg2 = 0;
    for (int q = 0; q < g.numQubits(); ++q) {
        if (static_cast<int>(g.neighbors(q).size()) == 2)
            ++deg2;
    }
    EXPECT_GT(deg2, 0);
    EXPECT_LE(g.maxDegree(), 3);
    EXPECT_TRUE(g.isConnected());
}

TEST(CouplingGraph, ShortestPathEndpointsInclusive)
{
    CouplingGraph g = lineTopology(5);
    auto path = g.shortestPath(1, 4);
    EXPECT_EQ(path, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(g.shortestPath(2, 2), (std::vector<int>{2}));
}

TEST(CouplingGraph, ShortestPathRespectsBlocking)
{
    CouplingGraph g = ringTopology(6);
    std::vector<bool> blocked(6, false);
    blocked[1] = true;
    auto path = g.shortestPath(0, 2, &blocked);
    // Must go the long way around: 0-5-4-3-2.
    EXPECT_EQ(path.size(), 5u);
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 2);
}

TEST(CouplingGraph, BlockedEndpointIsStillReachable)
{
    CouplingGraph g = lineTopology(4);
    std::vector<bool> blocked(4, false);
    blocked[3] = true; // target itself blocked: still allowed
    auto path = g.shortestPath(0, 3, &blocked);
    EXPECT_EQ(path.size(), 4u);
}

TEST(CouplingGraph, NoPathReturnsEmpty)
{
    CouplingGraph g(4, {{0, 1}, {2, 3}});
    EXPECT_FALSE(g.isConnected());
    EXPECT_TRUE(g.shortestPath(0, 3).empty());
}

TEST(CouplingGraph, FindCenterMinimizesTotalDistance)
{
    CouplingGraph g = lineTopology(7);
    EXPECT_EQ(g.findCenter({0, 6}), 3);
    EXPECT_EQ(g.findCenter({0, 1, 2}), 1);
    EXPECT_EQ(g.findCenter({5}), 5);
}

/**
 * findCenter stops a candidate's folds once it cannot win. Its answer
 * must still be the rule written out in full: the least eccentricity
 * to the terminals, then the least total distance, then the lowest
 * index.
 */
TEST(CouplingGraph, FindCenterMatchesExhaustiveRule)
{
    const std::pair<const char *, CouplingGraph> devices[] = {
        {"heavy-hex", ibmIthaca65()},
        {"sycamore", googleSycamore64()},
        {"grid", gridTopology(9, 9)},
        {"line", lineTopology(12)},
    };
    Rng rng(2028);
    for (const auto &[label, g] : devices) {
        SCOPED_TRACE(label);
        const int n = g.numQubits();
        for (int trial = 0; trial < 400; ++trial) {
            // 1 to 8 distinct terminals, in random order.
            std::vector<int> terminals;
            for (size_t t : rng.sampleIndices(n, 1 + rng.index(8)))
                terminals.push_back(static_cast<int>(t));
            int want = -1;
            std::pair<int, int> want_key;
            for (int c = 0; c < n; ++c) {
                int ecc = 0, total = 0;
                for (int t : terminals) {
                    ecc = std::max(ecc, g.distance(c, t));
                    total += g.distance(c, t);
                }
                if (want < 0 || std::pair(ecc, total) < want_key) {
                    want = c;
                    want_key = {ecc, total};
                }
            }
            ASSERT_EQ(g.findCenter(terminals), want) << "trial " << trial;
        }
    }
}

/** What a breadth-first search reached, from a reference or GraphSearch. */
struct Reached
{
    std::vector<int> order;
    /** Per node: -2 unreached, -1 a root, else the node that reached it. */
    std::vector<int> parent;
    std::vector<int> dist;
};

/**
 * A textbook BFS with fresh arrays per call, the reference for
 * GraphSearch: it starts at `root`, admits a neighbor only when
 * `admit` marks it, and adds `second_root` (if >= 0 and unreached)
 * once `second_after` nodes have been expanded.
 */
Reached
referenceBfs(const CouplingGraph &g, int root, const std::vector<char> &admit,
             int second_root, size_t second_after)
{
    Reached r;
    r.parent.assign(g.numQubits(), -2);
    r.dist.assign(g.numQubits(), -1);
    std::deque<int> queue;
    auto reach = [&](int v, int parent, int dist) {
        r.parent[v] = parent;
        r.dist[v] = dist;
        r.order.push_back(v);
        queue.push_back(v);
    };
    reach(root, -1, 0);
    for (size_t expanded = 0;; ++expanded) {
        if (second_root >= 0 && expanded == second_after &&
            r.parent[second_root] == -2)
            reach(second_root, -1, 0);
        if (queue.empty())
            break;
        const int u = queue.front();
        queue.pop_front();
        for (int v : g.neighbors(u)) {
            if (r.parent[v] == -2 && admit[v])
                reach(v, u, r.dist[u] + 1);
        }
    }
    return r;
}

/** The same search on a reused workspace; `mid_search` counts late roots. */
Reached
workspaceBfs(GraphSearch &search, const CouplingGraph &g, int root,
             const std::vector<char> &admit, int second_root,
             size_t second_after, int &mid_search)
{
    search.restart(root);
    for (size_t expanded = 0;; ++expanded) {
        if (second_root >= 0 && expanded == second_after) {
            if (search.pending() && !search.reached(second_root))
                ++mid_search;
            search.addRoot(second_root);
        }
        if (!search.pending())
            break;
        search.expand(search.next(), [&](int v) { return admit[v] != 0; });
    }
    Reached r;
    r.order = search.order();
    r.parent.assign(g.numQubits(), -2);
    r.dist.assign(g.numQubits(), -1);
    for (int v = 0; v < g.numQubits(); ++v) {
        if (search.reached(v)) {
            r.parent[v] = search.parent(v);
            r.dist[v] = search.distance(v);
        }
    }
    return r;
}

TEST(GraphSearch, MatchesReferenceBfsAcrossRestarts)
{
    const std::pair<const char *, CouplingGraph> devices[] = {
        {"line", lineTopology(9)},
        {"ring", ringTopology(10)},
        {"grid", gridTopology(4, 5)},
        {"heavy-hex", ibmIthaca65()},
        {"sycamore", googleSycamore64()},
    };
    Rng rng(2024);
    int mid_search = 0;
    for (const auto &[label, g] : devices) {
        SCOPED_TRACE(label);
        const int n = g.numQubits();
        // One workspace for every search on this device, so a mark
        // left by an earlier search would show up as a wrong order.
        GraphSearch search(g);
        for (int trial = 0; trial < 300; ++trial) {
            // Every third search admits all nodes; the rest 60% or 80%.
            const double density = trial % 3 ? 0.4 + 0.2 * (trial % 3) : 1.0;
            std::vector<char> admit(n);
            for (auto &a : admit)
                a = rng.uniform() < density;
            const int root = rng.uniformInt(0, n - 1);
            const int second = trial % 2 ? rng.uniformInt(0, n - 1) : -1;
            const size_t after = rng.index(4);
            SCOPED_TRACE("trial " + std::to_string(trial));

            const Reached want = referenceBfs(g, root, admit, second, after);
            const Reached got =
                workspaceBfs(search, g, root, admit, second, after,
                             mid_search);
            ASSERT_EQ(got.order, want.order);
            ASSERT_EQ(got.parent, want.parent);
            ASSERT_EQ(got.dist, want.dist);
            std::vector<int> got_path = {-1, -1}; // capacity is reused
            for (int v : want.order) {
                std::vector<int> path;
                for (int x = v; x != -1; x = want.parent[x])
                    path.insert(path.begin(), x);
                search.pathTo(v, got_path);
                ASSERT_EQ(got_path, path);
            }
        }
    }
    // Some late roots joined while nodes were still queued.
    EXPECT_GT(mid_search, 50);
}

TEST(GraphSearch, UnrestrictedDistancesEqualCouplingGraph)
{
    for (const CouplingGraph &g :
         {lineTopology(7), ringTopology(8), gridTopology(3, 4),
          heavyHexTopology(2, 5), ibmIthaca65(), googleSycamore64()}) {
        SCOPED_TRACE(g.name());
        GraphSearch search(g);
        for (int root = 0; root < g.numQubits(); ++root) {
            search.restart(root);
            search.run([](int) { return true; });
            ASSERT_EQ(search.order().size(),
                      static_cast<size_t>(g.numQubits()));
            EXPECT_EQ(search.order().front(), root);
            std::vector<int> path;
            for (int v = 0; v < g.numQubits(); ++v) {
                ASSERT_TRUE(search.reached(v));
                ASSERT_EQ(search.distance(v), g.distance(root, v));
                search.pathTo(v, path);
                ASSERT_EQ(path.size(),
                          static_cast<size_t>(g.distance(root, v)) + 1);
            }
        }
    }
}

TEST(Layout, TrivialMapping)
{
    Layout l(3, 5);
    EXPECT_EQ(l.physOf(2), 2);
    EXPECT_EQ(l.logicalAt(2), 2);
    EXPECT_TRUE(l.isFree(4));
    EXPECT_FALSE(l.isFree(0));
}

TEST(Layout, SwapMovesOccupants)
{
    Layout l(2, 4);
    l.applySwap(0, 3); // logical 0 onto free slot 3
    EXPECT_EQ(l.physOf(0), 3);
    EXPECT_TRUE(l.isFree(0));
    EXPECT_EQ(l.logicalAt(3), 0);

    l.applySwap(1, 3); // swap two occupied slots
    EXPECT_EQ(l.physOf(0), 1);
    EXPECT_EQ(l.physOf(1), 3);
}

TEST(Layout, EvictAndPlace)
{
    Layout l(2, 3);
    l.evict(1);
    EXPECT_TRUE(l.isFree(1));
    l.place(1, 2);
    EXPECT_EQ(l.physOf(1), 2);
    EXPECT_EQ(l.logicalAt(2), 1);
}

} // namespace
} // namespace tetris
