#include "hardware/coupling_graph.hh"

#include <algorithm>
#include <limits>

#include "common/hash.hh"
#include "common/logging.hh"

namespace tetris
{

namespace
{
constexpr int kInf = std::numeric_limits<int>::max() / 4;
} // namespace

CouplingGraph::CouplingGraph(int num_qubits,
                             std::vector<std::pair<int, int>> edges,
                             std::string name)
    : numQubits_(num_qubits), name_(std::move(name)),
      edges_(std::move(edges)), adj_(num_qubits)
{
    for (auto &[a, b] : edges_) {
        TETRIS_ASSERT(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_,
                      "edge endpoint out of range");
        TETRIS_ASSERT(a != b, "self edge");
        adj_[a].push_back(b);
        adj_[b].push_back(a);
    }
    for (auto &nbrs : adj_)
        std::sort(nbrs.begin(), nbrs.end());

    // All-pairs BFS.
    dist_.assign(numQubits_, std::vector<int>(numQubits_, kInf));
    GraphSearch search(*this);
    for (int s = 0; s < numQubits_; ++s) {
        search.restart(s);
        search.run([](int) { return true; });
        for (int v : search.order())
            dist_[s][v] = search.distance(v);
    }
}

bool
CouplingGraph::connected(int a, int b) const
{
    return dist_[a][b] == 1;
}

bool
CouplingGraph::isConnected() const
{
    for (int q = 0; q < numQubits_; ++q) {
        if (dist_[0][q] >= kInf)
            return false;
    }
    return true;
}

std::vector<int>
CouplingGraph::shortestPath(int a, int b,
                            const std::vector<bool> *blocked) const
{
    auto admit = [&](int v) {
        return blocked == nullptr || !(*blocked)[v] || v == b;
    };
    GraphSearch search(*this);
    search.restart(a);
    while (search.pending() && !search.reached(b))
        search.expand(search.next(), admit);
    std::vector<int> path;
    if (search.reached(b))
        search.pathTo(b, path);
    return path;
}

int
CouplingGraph::findCenter(const std::vector<int> &terminals) const
{
    TETRIS_ASSERT(!terminals.empty(), "findCenter with no terminals");
    // Minimize eccentricity w.r.t. the terminals, breaking ties by
    // total distance, then by node index (deterministic). Both folds
    // only grow, so a candidate's fold stops once it cannot win.
    int best = -1;
    long best_ecc = std::numeric_limits<long>::max();
    long best_total = std::numeric_limits<long>::max();
    for (int c = 0; c < numQubits_; ++c) {
        const std::vector<int> &from_c = dist_[c];
        long ecc = 0, total = 0;
        bool wins = true;
        for (int t : terminals) {
            ecc = std::max<long>(ecc, from_c[t]);
            total += from_c[t];
            wins = ecc < best_ecc || (ecc == best_ecc && total < best_total);
            if (!wins)
                break;
        }
        if (wins) {
            best_ecc = ecc;
            best_total = total;
            best = c;
        }
    }
    return best;
}

int
CouplingGraph::maxDegree() const
{
    size_t d = 0;
    for (const auto &nbrs : adj_)
        d = std::max(d, nbrs.size());
    return static_cast<int>(d);
}

uint64_t
CouplingGraph::contentHash() const
{
    // Canonicalize the edge list so construction order is irrelevant.
    std::vector<std::pair<int, int>> canon = edges_;
    for (auto &[a, b] : canon) {
        if (a > b)
            std::swap(a, b);
    }
    std::sort(canon.begin(), canon.end());
    uint64_t h = fnvMix(kFnvOffset, numQubits_);
    h = fnvMix(h, canon.size());
    for (const auto &[a, b] : canon) {
        h = fnvMix(h, a);
        h = fnvMix(h, b);
    }
    return h;
}

GraphSearch::GraphSearch(const CouplingGraph &hw)
    : hw_(hw), parent_(hw.numQubits()), dist_(hw.numQubits()),
      stamp_(hw.numQubits(), 0)
{
    order_.reserve(hw.numQubits());
}

void
GraphSearch::pathTo(int v, std::vector<int> &path) const
{
    path.resize(dist_[v] + 1);
    for (int i = dist_[v]; i >= 0; --i, v = parent_[v])
        path[i] = v;
}

} // namespace tetris
