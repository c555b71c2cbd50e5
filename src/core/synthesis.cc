#include "core/synthesis.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace tetris
{

namespace
{

/** Physical positions of the block's root qubits, in rootSet order. */
std::vector<int>
rootTerminals(const TetrisBlock &tb, const Layout &layout)
{
    std::vector<int> terminals;
    terminals.reserve(tb.rootSet().size());
    for (size_t q : tb.rootSet())
        terminals.push_back(layout.physOf(static_cast<int>(q)));
    return terminals;
}

/** Hops from every terminal to `center`, summed. */
long
gatherCost(const CouplingGraph &hw, const std::vector<int> &terminals,
           int center)
{
    long cost = 0;
    for (int t : terminals)
        cost += hw.distance(t, center);
    return cost;
}

} // namespace

BlockSynthesizer::BlockSynthesizer(const CouplingGraph &hw,
                                   const SynthesisOptions &opts)
    : hw_(hw), opts_(opts), search_(hw), member_(hw.numQubits(), 0)
{
    TETRIS_ASSERT(std::isfinite(opts_.swapWeight) && opts_.swapWeight >= 0,
                  "swap weight must be finite and >= 0, got ",
                  opts_.swapWeight);
}

void
BlockSynthesizer::moveAlongPath(const std::vector<int> &path, Layout &layout,
                                Circuit &circ, SynthStats &stats)
{
    for (size_t i = 1; i < path.size(); ++i) {
        circ.swap(path[i - 1], path[i]);
        layout.applySwap(path[i - 1], path[i]);
        ++stats.insertedSwaps;
    }
}

std::vector<int>
BlockSynthesizer::growCluster(const std::vector<int> &logicals, int center,
                              Layout &layout, Circuit &circ,
                              SynthStats &stats)
{
    TETRIS_ASSERT(!logicals.empty());
    auto is_member = [&](int v) { return member_[v] != 0; };

    // The components of the subgraph induced on the group's
    // positions: component k is order[starts[k], starts[k + 1]) of
    // one search, rooted at its first member in `logicals` order.
    for (int q : logicals)
        member_[layout.physOf(q)] = 1;
    std::vector<size_t> starts{0};
    search_.restart(layout.physOf(logicals.front()));
    for (int q : logicals) {
        const int pos = layout.physOf(q);
        if (!search_.reached(pos)) {
            starts.push_back(search_.order().size());
            search_.addRoot(pos);
        }
        search_.run(is_member);
    }
    for (int q : logicals)
        member_[layout.physOf(q)] = 0;
    const std::vector<int> &order = search_.order();
    starts.push_back(order.size());

    // Already connected? No SWAPs needed regardless of the center.
    if (starts.size() == 2)
        return order;

    // From here on member_ marks the cluster.
    std::vector<int> cluster;
    std::vector<int> pending;
    auto add_to_cluster = [&](int pos) {
        cluster.push_back(pos);
        member_[pos] = 1;
    };

    if (center >= 0) {
        // Route the nearest group member onto the center position.
        pending = logicals;
        size_t best = 0;
        for (size_t i = 1; i < pending.size(); ++i) {
            if (hw_.distance(layout.physOf(pending[i]), center) <
                hw_.distance(layout.physOf(pending[best]), center)) {
                best = i;
            }
        }
        int q = pending[best];
        pending.erase(pending.begin() + best);
        std::vector<int> path =
            hw_.shortestPath(layout.physOf(q), center);
        moveAlongPath(path, layout, circ, stats);
        add_to_cluster(center);
    } else {
        // Seed with the largest already-connected component.
        size_t largest = 0;
        for (size_t k = 1; k + 1 < starts.size(); ++k) {
            if (starts[k + 1] - starts[k] >
                starts[largest + 1] - starts[largest])
                largest = k;
        }
        for (size_t i = starts[largest]; i < starts[largest + 1]; ++i)
            add_to_cluster(order[i]);
        for (int q : logicals) {
            if (!member_[layout.physOf(q)])
                pending.push_back(q);
        }
    }

    auto next_to_cluster = [&](int v) {
        for (int u : hw_.neighbors(v)) {
            if (member_[u])
                return true;
        }
        return false;
    };
    auto outside_cluster = [&](int v) { return member_[v] == 0; };
    while (!pending.empty()) {
        // Pick the pending qubit with the shortest realizable path to
        // the cluster frontier: the first node next to the cluster
        // that a search around the cluster takes off its queue.
        // Nodes leave the queue in nondecreasing distance and only a
        // strictly shorter path replaces the best one, so a search
        // stops at the first node whose path could not be shorter.
        size_t best_idx = pending.size();
        std::vector<int> best_path;
        for (size_t i = 0; i < pending.size(); ++i) {
            search_.restart(layout.physOf(pending[i]));
            while (search_.pending()) {
                const int u = search_.next();
                const size_t length = search_.distance(u) + 1;
                if (best_idx != pending.size() && length >= best_path.size())
                    break;
                if (next_to_cluster(u)) {
                    best_idx = i;
                    search_.pathTo(u, best_path);
                    break;
                }
                search_.expand(u, outside_cluster);
            }
        }
        TETRIS_ASSERT(best_idx != pending.size(),
                      "cluster growth blocked: no free path to the "
                      "frontier on ", hw_.name());
        moveAlongPath(best_path, layout, circ, stats);
        add_to_cluster(best_path.back());
        pending.erase(pending.begin() + best_idx);
    }
    for (int pos : cluster)
        member_[pos] = 0;
    return cluster;
}

BlockSynthesizer::RootTree
BlockSynthesizer::rootTree(const std::vector<int> &positions)
{
    RootTree tree;
    long best_cost = std::numeric_limits<long>::max();
    for (int cand : positions) {
        // The sum only grows, so stop once it cannot win.
        long cost = 0;
        for (int other : positions) {
            cost += hw_.distance(cand, other);
            if (cost >= best_cost)
                break;
        }
        if (cost < best_cost) {
            best_cost = cost;
            tree.root = cand;
        }
    }

    for (int p : positions)
        member_[p] = 1;
    search_.restart(tree.root);
    search_.run([&](int v) { return member_[v] != 0; });
    for (int p : positions)
        member_[p] = 0;
    const std::vector<int> &order = search_.order();
    TETRIS_ASSERT(order.size() == positions.size(),
                  "tree positions not connected");
    tree.edges.reserve(order.size() - 1);
    for (size_t i = 1; i < order.size(); ++i)
        tree.edges.emplace_back(order[i], search_.parent(order[i]));
    return tree;
}

void
BlockSynthesizer::emitRotation(const RootTree &tree, double angle,
                               Circuit &circ, SynthStats &stats)
{
    for (auto it = tree.edges.rbegin(); it != tree.edges.rend(); ++it)
        circ.cx(it->first, it->second);
    circ.rz(tree.root, angle);
    for (const auto &[child, parent] : tree.edges)
        circ.cx(child, parent);
    stats.emittedCx += 2 * tree.edges.size();
}

void
BlockSynthesizer::synthesizeString(const PauliString &s, double angle,
                                   Layout &layout, Circuit &circ,
                                   SynthStats &stats)
{
    std::vector<size_t> support = s.support();
    if (support.empty())
        return; // Identity: a global phase only.

    if (support.size() == 1) {
        int pos = layout.physOf(static_cast<int>(support[0]));
        PauliOp op = s.op(support[0]);
        circ.basisEnter(pos, op);
        circ.rz(pos, angle);
        circ.basisExit(pos, op);
        return;
    }

    std::vector<int> logicals(support.begin(), support.end());
    const RootTree tree = rootTree(
        growCluster(logicals, /*center=*/-1, layout, circ, stats));

    for (size_t q : support)
        circ.basisEnter(layout.physOf(static_cast<int>(q)), s.op(q));
    emitRotation(tree, angle, circ, stats);
    for (size_t q : support)
        circ.basisExit(layout.physOf(static_cast<int>(q)), s.op(q));
}

BlockSynthesizer::AttachResult
BlockSynthesizer::attachLeaves(const TetrisBlock &tb,
                               const std::vector<int> &root_positions,
                               Layout &layout, Circuit &circ,
                               SynthStats &stats)
{
    AttachResult result;
    const double w = opts_.swapWeight;
    const double num_ps = static_cast<double>(tb.numStrings());

    const size_t n = hw_.numQubits();
    std::vector<char> blocked(n, 0);
    std::vector<char> is_root_pos(n, 0);
    for (int p : root_positions) {
        blocked[p] = 1;
        is_root_pos[p] = 1;
    }

    std::vector<int> pending(tb.leafSet().begin(), tb.leafSet().end());

    // Per-hop cost of a CNOT bridge: 2 CNOTs at the block boundary
    // (the bridge hops are internal leaf edges, canceled between
    // strings), versus 3 CNOTs per SWAP weighted by w in the score.
    const double bridge_hop_cost = 2.0;

    while (!pending.empty()) {
        struct Choice
        {
            double score = std::numeric_limits<double>::max();
            size_t pending_idx = 0;
            int target = -1;
            bool bridge = false;
            std::vector<int> path; // start .. approach node
        } best;

        // One search per pending qubit over non-blocked nodes (SWAP
        // routes) and one restricted to free |0> ancillas (bridge
        // routes); each node taken off the queue that is adjacent to
        // a mapped target yields a candidate attachment. A candidate
        // through u scores hops(u)*hop + (2 or 2*#ps), hops never
        // fall along the queue and hop >= 0, and only a strictly
        // lower score replaces the best: so a search stops at the
        // first node whose least possible score, hops(u)*hop + 2,
        // reaches the best. Rounding is monotone, so this holds in
        // floating point too.
        auto scan = [&](size_t i, bool free_only) {
            const double hop = free_only ? bridge_hop_cost : w;
            auto admit = [&](int v) {
                return !blocked[v] && (!free_only || layout.isFree(v));
            };
            search_.restart(layout.physOf(pending[i]));
            while (search_.pending()) {
                const int u = search_.next();
                const double hops = search_.distance(u);
                if (hops * hop + 2 >= best.score)
                    break;
                for (int t : hw_.neighbors(u)) {
                    if (!blocked[t])
                        continue;
                    double score =
                        hops * hop + (is_root_pos[t] ? 2 * num_ps : 2);
                    if (score < best.score) {
                        best.score = score;
                        best.pending_idx = i;
                        best.target = t;
                        best.bridge = free_only && hops > 0;
                        search_.pathTo(u, best.path);
                    }
                }
                search_.expand(u, admit);
            }
        };

        for (size_t i = 0; i < pending.size(); ++i) {
            scan(i, /*free_only=*/false);
            if (opts_.enableBridging)
                scan(i, /*free_only=*/true);
        }

        if (best.target < 0)
            return result; // ok stays false; caller falls back.

        int q = pending[best.pending_idx];
        pending.erase(pending.begin() + best.pending_idx);
        bool target_is_root = is_root_pos[best.target];

        if (best.bridge) {
            // Chain q(path0) -> path1 -> ... -> pathLast -> target.
            // Edges appended parent-side-first (see emitBlock).
            int top = best.path.back();
            result.edges.push_back({top, best.target, target_is_root});
            for (size_t k = best.path.size() - 1; k >= 1; --k) {
                result.edges.push_back(
                    {best.path[k - 1], best.path[k], false});
            }
            for (int pos : best.path)
                blocked[pos] = 1;
            stats.bridgeNodes += best.path.size() - 1;
            result.leafPositions.emplace_back(q, best.path.front());
        } else {
            moveAlongPath(best.path, layout, circ, stats);
            int pos = layout.physOf(q);
            TETRIS_ASSERT(pos == best.path.back());
            result.edges.push_back({pos, best.target, target_is_root});
            blocked[pos] = 1;
            result.leafPositions.emplace_back(q, pos);
        }
    }

    result.ok = true;
    return result;
}

void
BlockSynthesizer::emitBlock(const TetrisBlock &tb, const RootTree &root_tree,
                            const AttachResult &att, const Layout &layout,
                            Circuit &circ, SynthStats &stats)
{
    const PauliBlock &block = tb.block();
    // The attachment CNOTs of one kind (connectors or internal leaf
    // edges), toward the root tree or mirrored back out.
    auto emit_edges = [&](bool connector, bool inward) {
        auto emit = [&](const AttachEdge &e) {
            if (e.connector == connector) {
                circ.cx(e.childPos, e.parentPos);
                ++stats.emittedCx;
            }
        };
        if (inward)
            std::for_each(att.edges.rbegin(), att.edges.rend(), emit);
        else
            std::for_each(att.edges.begin(), att.edges.end(), emit);
    };

    // --- Block prologue: leaf basis gates + internal leaf CNOTs. ---
    for (const auto &[logical, pos] : att.leafPositions)
        circ.basisEnter(pos, tb.leafOp(logical));
    emit_edges(/*connector=*/false, /*inward=*/true);

    // --- Per string: root basis, connectors, root tree, RZ. ---
    for (size_t i = 0; i < block.size(); ++i) {
        const PauliString &s = block.string(i);
        for (size_t q : tb.rootSet()) {
            circ.basisEnter(layout.physOf(static_cast<int>(q)), s.op(q));
        }
        emit_edges(/*connector=*/true, /*inward=*/true);
        emitRotation(root_tree, block.weight(i) * block.theta(), circ,
                     stats);
        emit_edges(/*connector=*/true, /*inward=*/false);
        for (size_t q : tb.rootSet()) {
            circ.basisExit(layout.physOf(static_cast<int>(q)), s.op(q));
        }
    }

    // --- Block epilogue: mirror internal leaf CNOTs + leaf basis. ---
    emit_edges(/*connector=*/false, /*inward=*/false);
    for (const auto &[logical, pos] : att.leafPositions)
        circ.basisExit(pos, tb.leafOp(logical));
}

void
BlockSynthesizer::synthesizeBlock(const TetrisBlock &tb, Layout &layout,
                                  Circuit &circ, SynthStats &stats)
{
    const PauliBlock &block = tb.block();

    auto fallback = [&] {
        ++stats.blocksFallback;
        for (size_t i = 0; i < block.size(); ++i) {
            synthesizeString(block.string(i),
                             block.weight(i) * block.theta(), layout,
                             circ, stats);
        }
    };

    if (tb.rootSet().empty() || tb.numStrings() < 2 ||
        !tb.hasUniformRootSupport()) {
        fallback();
        return;
    }

    // The root qubits' distance center under the live layout; it
    // prices the gather below and is where step 1 gathers them.
    const std::vector<int> terminals = rootTerminals(tb, layout);
    const int center = hw_.findCenter(terminals);

    // Adaptive tuning (Sec. IV-B2): block-level synthesis is only
    // worthwhile when the structural cancellation (up to
    // 2*(L-1)*(#ps-1) CNOTs with a single leaf tree) outweighs the
    // SWAP cost of gathering the root qubits.
    if (opts_.adaptiveFallbackFactor > 0.0) {
        const long leaf_size = static_cast<long>(tb.leafSet().size());
        const long num_ps = static_cast<long>(tb.numStrings());
        const long savings =
            leaf_size >= 2 ? 2 * (leaf_size - 1) * (num_ps - 1) : 0;
        const double cost =
            opts_.adaptiveFallbackFactor *
            static_cast<double>(gatherCost(hw_, terminals, center));
        if (static_cast<double>(savings) <= cost) {
            fallback();
            return;
        }
    }

    // 1. Cluster the root qubits around the center.
    const std::vector<int> root_logicals(tb.rootSet().begin(),
                                         tb.rootSet().end());
    std::vector<int> root_positions =
        growCluster(root_logicals, center, layout, circ, stats);

    // 2. Root tree via BFS from the most central member (the center
    // itself when clustering ran; the in-set center when the roots
    // were already connected and no SWAPs were inserted).
    const RootTree root_tree = rootTree(root_positions);

    // 3. Attach the leaf qubits (may insert SWAPs / bridges).
    AttachResult att =
        attachLeaves(tb, root_positions, layout, circ, stats);
    if (!att.ok) {
        // Only SWAPs were emitted so far; they are semantically
        // neutral, so the per-string fallback stays correct.
        fallback();
        return;
    }

    // 4. Emit with structural cancellation.
    ++stats.blocksWithCancellation;
    emitBlock(tb, root_tree, att, layout, circ, stats);
}

long
BlockSynthesizer::estimateRootClusterCost(const TetrisBlock &tb,
                                          const Layout &layout) const
{
    if (tb.rootSet().empty())
        return 0;
    const std::vector<int> terminals = rootTerminals(tb, layout);
    return gatherCost(hw_, terminals, hw_.findCenter(terminals));
}

} // namespace tetris
