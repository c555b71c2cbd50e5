#include "core/synthesis.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace tetris
{

namespace
{

// Arena-backed scratch containers. BFS queues are plain vectors
// drained by a moving head index (nothing is ever popped), so the
// deque's node allocations disappear entirely.
using ScratchInts = std::vector<int, ArenaAllocator<int>>;
using ScratchMarks = std::vector<char, ArenaAllocator<char>>;

/** Connected components of the induced subgraph on `positions`. */
std::vector<std::vector<int>>
inducedComponents(const CouplingGraph &hw, const ScratchInts &positions,
                  Arena &arena)
{
    Arena::Frame frame(arena);
    const ArenaAllocator<int> ints(arena);
    ScratchMarks member(hw.numQubits(), 0, ArenaAllocator<char>(arena));
    for (int p : positions)
        member[p] = 1;

    ScratchMarks seen(hw.numQubits(), 0, ArenaAllocator<char>(arena));
    ScratchInts queue(ints);
    queue.reserve(positions.size());
    std::vector<std::vector<int>> comps;
    for (int p : positions) {
        if (seen[p])
            continue;
        comps.emplace_back();
        queue.clear();
        queue.push_back(p);
        seen[p] = 1;
        for (size_t head = 0; head < queue.size(); ++head) {
            int u = queue[head];
            comps.back().push_back(u);
            for (int v : hw.neighbors(u)) {
                if (member[v] && !seen[v]) {
                    seen[v] = 1;
                    queue.push_back(v);
                }
            }
        }
    }
    return comps;
}

/**
 * BFS from `start` over nodes not in `blocked`, returning the path
 * to the nearest node adjacent to `blocked`-marked cluster nodes in
 * `cluster_mark` (possibly `start` itself). Empty on failure.
 */
std::vector<int>
pathToClusterFrontier(const CouplingGraph &hw, int start,
                      const ScratchMarks &cluster_mark, Arena &arena)
{
    auto adjacent_to_cluster = [&](int v) {
        for (int u : hw.neighbors(v)) {
            if (cluster_mark[u])
                return true;
        }
        return false;
    };

    Arena::Frame frame(arena);
    const ArenaAllocator<int> ints(arena);
    ScratchInts parent(hw.numQubits(), -2, ints);
    ScratchInts queue(ints);
    queue.reserve(hw.numQubits());
    queue.push_back(start);
    parent[start] = -1;
    for (size_t head = 0; head < queue.size(); ++head) {
        int u = queue[head];
        if (adjacent_to_cluster(u)) {
            std::vector<int> path;
            for (int x = u; x != -1; x = parent[x])
                path.push_back(x);
            std::reverse(path.begin(), path.end());
            return path;
        }
        for (int v : hw.neighbors(u)) {
            if (parent[v] == -2 && !cluster_mark[v]) {
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    return {};
}

} // namespace

BlockSynthesizer::BlockSynthesizer(const CouplingGraph &hw,
                                   const SynthesisOptions &opts)
    : hw_(hw), opts_(opts)
{
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

    Arena::Frame frame(arena_);
    const ArenaAllocator<int> ints(arena_);
    ScratchMarks cluster_mark(hw_.numQubits(), 0,
                              ArenaAllocator<char>(arena_));
    std::vector<int> cluster;
    std::vector<int> pending = logicals;

    auto add_to_cluster = [&](int pos) {
        cluster.push_back(pos);
        cluster_mark[pos] = 1;
    };

    // Already connected? No SWAPs needed regardless of the center.
    {
        ScratchInts positions(ints);
        positions.reserve(pending.size());
        for (int q : pending)
            positions.push_back(layout.physOf(q));
        auto comps = inducedComponents(hw_, positions, arena_);
        if (comps.size() == 1)
            return comps.front();
    }

    if (center >= 0) {
        // Route the nearest group member onto the center position.
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
        ScratchInts positions(ints);
        positions.reserve(pending.size());
        for (int q : pending)
            positions.push_back(layout.physOf(q));
        auto comps = inducedComponents(hw_, positions, arena_);
        size_t largest = 0;
        for (size_t i = 1; i < comps.size(); ++i) {
            if (comps[i].size() > comps[largest].size())
                largest = i;
        }
        for (int pos : comps[largest])
            add_to_cluster(pos);
        std::vector<int> still_pending;
        for (int q : pending) {
            if (!cluster_mark[layout.physOf(q)])
                still_pending.push_back(q);
        }
        pending = std::move(still_pending);
    }

    while (!pending.empty()) {
        // Pick the pending qubit with the shortest realizable path to
        // the cluster frontier.
        size_t best_idx = pending.size();
        std::vector<int> best_path;
        for (size_t i = 0; i < pending.size(); ++i) {
            std::vector<int> path = pathToClusterFrontier(
                hw_, layout.physOf(pending[i]), cluster_mark, arena_);
            if (path.empty())
                continue;
            if (best_idx == pending.size() ||
                path.size() < best_path.size()) {
                best_idx = i;
                best_path = std::move(path);
            }
        }
        TETRIS_ASSERT(best_idx != pending.size(),
                      "cluster growth blocked: no free path to the "
                      "frontier on ", hw_.name());
        moveAlongPath(best_path, layout, circ, stats);
        add_to_cluster(best_path.back());
        pending.erase(pending.begin() + best_idx);
    }
    return cluster;
}

void
BlockSynthesizer::buildBfsTree(const std::vector<int> &positions,
                               int root_pos, std::vector<int> &bfs_order,
                               std::vector<int> &parent) const
{
    Arena::Frame frame(arena_);
    ScratchMarks member(hw_.numQubits(), 0, ArenaAllocator<char>(arena_));
    for (int p : positions)
        member[p] = 1;
    TETRIS_ASSERT(member[root_pos]);

    parent.assign(hw_.numQubits(), -1);
    bfs_order.clear();
    ScratchMarks seen(hw_.numQubits(), 0, ArenaAllocator<char>(arena_));
    ScratchInts queue{ArenaAllocator<int>(arena_)};
    queue.reserve(positions.size());
    queue.push_back(root_pos);
    seen[root_pos] = 1;
    for (size_t head = 0; head < queue.size(); ++head) {
        int u = queue[head];
        bfs_order.push_back(u);
        for (int v : hw_.neighbors(u)) {
            if (member[v] && !seen[v]) {
                seen[v] = 1;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    TETRIS_ASSERT(bfs_order.size() == positions.size(),
                  "tree positions not connected");
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
    std::vector<int> cluster =
        growCluster(logicals, /*center=*/-1, layout, circ, stats);

    // Root the tree at the member position with minimal total
    // distance to the others.
    int root_pos = cluster.front();
    long best_cost = std::numeric_limits<long>::max();
    for (int cand : cluster) {
        long cost = 0;
        for (int other : cluster)
            cost += hw_.distance(cand, other);
        if (cost < best_cost) {
            best_cost = cost;
            root_pos = cand;
        }
    }

    std::vector<int> bfs_order, parent;
    buildBfsTree(cluster, root_pos, bfs_order, parent);

    for (size_t q : support)
        circ.basisEnter(layout.physOf(static_cast<int>(q)), s.op(q));
    for (auto it = bfs_order.rbegin(); it != bfs_order.rend(); ++it) {
        if (parent[*it] != -1) {
            circ.cx(*it, parent[*it]);
            ++stats.emittedCx;
        }
    }
    circ.rz(root_pos, angle);
    for (int pos : bfs_order) {
        if (parent[pos] != -1) {
            circ.cx(pos, parent[pos]);
            ++stats.emittedCx;
        }
    }
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

    Arena::Frame frame(arena_);
    ScratchMarks blocked(hw_.numQubits(), 0,
                         ArenaAllocator<char>(arena_));
    ScratchMarks is_root_pos(hw_.numQubits(), 0,
                             ArenaAllocator<char>(arena_));
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

        // One BFS pass per pending qubit over non-blocked nodes
        // (SWAP routes) and one restricted to free |0> ancillas
        // (bridge routes); each visited node adjacent to a mapped
        // target yields a candidate attachment.
        auto scan = [&](size_t i, bool free_only) {
            int start = layout.physOf(pending[i]);
            Arena::Frame scan_frame(arena_);
            const ArenaAllocator<int> ints(arena_);
            ScratchInts parent(hw_.numQubits(), -2, ints);
            ScratchInts dist(hw_.numQubits(), -1, ints);
            ScratchInts queue(ints);
            queue.reserve(hw_.numQubits());
            queue.push_back(start);
            parent[start] = -1;
            dist[start] = 0;
            for (size_t head = 0; head < queue.size(); ++head) {
                int u = queue[head];
                for (int t : hw_.neighbors(u)) {
                    if (!blocked[t])
                        continue;
                    double d = dist[u] + 1;
                    double hop = free_only ? bridge_hop_cost : w;
                    double score = (d - 1) * hop +
                                   (is_root_pos[t] ? 2 * num_ps : 2);
                    if (score < best.score) {
                        best.score = score;
                        best.pending_idx = i;
                        best.target = t;
                        best.bridge = free_only && d > 1;
                        best.path.clear();
                        for (int x = u; x != -1; x = parent[x])
                            best.path.push_back(x);
                        std::reverse(best.path.begin(), best.path.end());
                    }
                }
                for (int v : hw_.neighbors(u)) {
                    if (parent[v] != -2 || blocked[v])
                        continue;
                    if (free_only && !layout.isFree(v))
                        continue;
                    parent[v] = u;
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
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
            for (size_t k = 1; k < best.path.size(); ++k) {
                blocked[best.path[k]] = 1;
                result.bridgePositions.push_back(best.path[k]);
                ++stats.bridgeNodes;
            }
            blocked[best.path.front()] = 1;
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
BlockSynthesizer::emitBlock(const TetrisBlock &tb,
                            const std::vector<int> &root_bfs_order,
                            const std::vector<int> &root_parent,
                            const AttachResult &att, Layout &layout,
                            Circuit &circ, SynthStats &stats)
{
    (void)layout;
    const PauliBlock &block = tb.block();

    // --- Block prologue: leaf basis gates + internal leaf CNOTs. ---
    for (const auto &[logical, pos] : att.leafPositions)
        circ.basisEnter(pos, tb.leafOp(logical));
    for (auto it = att.edges.rbegin(); it != att.edges.rend(); ++it) {
        if (!it->connector) {
            circ.cx(it->childPos, it->parentPos);
            ++stats.emittedCx;
        }
    }

    // --- Per string: root basis, connectors, root tree, RZ. ---
    const int rz_pos = root_bfs_order.front();
    for (size_t i = 0; i < block.size(); ++i) {
        const PauliString &s = block.string(i);
        for (size_t q : tb.rootSet()) {
            circ.basisEnter(layout.physOf(static_cast<int>(q)), s.op(q));
        }
        for (auto it = att.edges.rbegin(); it != att.edges.rend(); ++it) {
            if (it->connector) {
                circ.cx(it->childPos, it->parentPos);
                ++stats.emittedCx;
            }
        }
        for (auto it = root_bfs_order.rbegin();
             it != root_bfs_order.rend(); ++it) {
            if (root_parent[*it] != -1) {
                circ.cx(*it, root_parent[*it]);
                ++stats.emittedCx;
            }
        }
        circ.rz(rz_pos, block.weight(i) * block.theta());
        for (int pos : root_bfs_order) {
            if (root_parent[pos] != -1) {
                circ.cx(pos, root_parent[pos]);
                ++stats.emittedCx;
            }
        }
        for (const auto &e : att.edges) {
            if (e.connector) {
                circ.cx(e.childPos, e.parentPos);
                ++stats.emittedCx;
            }
        }
        for (size_t q : tb.rootSet()) {
            circ.basisExit(layout.physOf(static_cast<int>(q)), s.op(q));
        }
    }

    // --- Block epilogue: mirror internal leaf CNOTs + leaf basis. ---
    for (const auto &e : att.edges) {
        if (!e.connector) {
            circ.cx(e.childPos, e.parentPos);
            ++stats.emittedCx;
        }
    }
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

    // Adaptive tuning (Sec. IV-B2): block-level synthesis is only
    // worthwhile when the structural cancellation (up to
    // 2*(L-1)*(#ps-1) CNOTs with a single leaf tree) outweighs the
    // SWAP cost of gathering the root qubits.
    if (opts_.adaptiveFallbackFactor > 0.0) {
        const long leaf_size = static_cast<long>(tb.leafSet().size());
        const long num_ps = static_cast<long>(tb.numStrings());
        const long savings =
            leaf_size >= 2 ? 2 * (leaf_size - 1) * (num_ps - 1) : 0;
        const double cost = opts_.adaptiveFallbackFactor *
                            static_cast<double>(
                                estimateRootClusterCost(tb, layout));
        if (static_cast<double>(savings) <= cost) {
            fallback();
            return;
        }
    }

    // 1. Cluster the root qubits around a distance center.
    std::vector<int> root_logicals(tb.rootSet().begin(),
                                   tb.rootSet().end());
    std::vector<int> terminals;
    terminals.reserve(root_logicals.size());
    for (int q : root_logicals)
        terminals.push_back(layout.physOf(q));
    int center = hw_.findCenter(terminals);
    std::vector<int> root_positions =
        growCluster(root_logicals, center, layout, circ, stats);

    // 2. Root tree via BFS from the most central member (the center
    // itself when clustering ran; the in-set center when the roots
    // were already connected and no SWAPs were inserted).
    int tree_root = root_positions.front();
    long best_cost = std::numeric_limits<long>::max();
    for (int cand : root_positions) {
        long cost = 0;
        for (int other : root_positions)
            cost += hw_.distance(cand, other);
        if (cost < best_cost) {
            best_cost = cost;
            tree_root = cand;
        }
    }
    std::vector<int> root_bfs_order, root_parent;
    buildBfsTree(root_positions, tree_root, root_bfs_order, root_parent);

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
    emitBlock(tb, root_bfs_order, root_parent, att, layout, circ, stats);
}

long
BlockSynthesizer::estimateRootClusterCost(const TetrisBlock &tb,
                                          const Layout &layout) const
{
    const auto &roots = tb.rootSet();
    if (roots.empty())
        return 0;
    std::vector<int> terminals;
    terminals.reserve(roots.size());
    for (size_t q : roots)
        terminals.push_back(layout.physOf(static_cast<int>(q)));
    int center = hw_.findCenter(terminals);
    long cost = 0;
    for (int t : terminals)
        cost += hw_.distance(t, center);
    return cost;
}

} // namespace tetris
