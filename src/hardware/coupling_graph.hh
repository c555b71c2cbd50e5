/**
 * @file
 * Hardware coupling graph with distance and path queries.
 */

#ifndef TETRIS_HARDWARE_COUPLING_GRAPH_HH
#define TETRIS_HARDWARE_COUPLING_GRAPH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tetris
{

/**
 * Undirected connectivity graph of a quantum device. Nodes are
 * physical qubits. All-pairs BFS distances are computed once at
 * construction (devices here are <= a few hundred qubits), with one
 * GraphSearch.
 */
class CouplingGraph
{
  public:
    /** Build from an explicit edge list over n nodes. */
    CouplingGraph(int num_qubits,
                  std::vector<std::pair<int, int>> edges,
                  std::string name = "custom");

    int numQubits() const { return numQubits_; }
    const std::string &name() const { return name_; }
    const std::vector<std::pair<int, int>> &edges() const { return edges_; }
    const std::vector<int> &neighbors(int q) const { return adj_[q]; }

    /** True if (a, b) is an edge. */
    bool connected(int a, int b) const;

    /** BFS hop distance between two physical qubits. */
    int distance(int a, int b) const { return dist_[a][b]; }

    /** True if the whole graph is one connected component. */
    bool isConnected() const;

    /**
     * One shortest path from a to b (inclusive of both endpoints).
     * If `blocked` is non-null, nodes marked true are not traversed
     * (endpoints are always allowed). Returns an empty vector if no
     * path exists under the blocking constraints.
     */
    std::vector<int> shortestPath(int a, int b,
                                  const std::vector<bool> *blocked
                                  = nullptr) const;

    /**
     * The physical node with the least eccentricity to the given
     * terminals (its largest BFS distance to one of them), ties
     * broken by the least total distance, then by the lower index.
     */
    int findCenter(const std::vector<int> &terminals) const;

    /** Maximum node degree (used by topology tests). */
    int maxDegree() const;

    /**
     * FNV-1a hash over node count and edge list (the name is
     * excluded: two graphs with the same connectivity compile
     * identically). Used to key the compile cache.
     */
    uint64_t contentHash() const;

  private:
    int numQubits_;
    std::string name_;
    std::vector<std::pair<int, int>> edges_;
    std::vector<std::vector<int>> adj_;
    std::vector<std::vector<int>> dist_;
};

/**
 * The compiler's one breadth-first search: a reusable workspace over
 * one coupling graph. Its queue, parents, distances and "reached"
 * marks outlive each search; the marks are stamped with a 64-bit
 * generation, so restart() forgets the last search at once and a
 * search costs only the nodes it reaches. Nodes leave the queue in
 * FIFO order, and expand(u, admit) reaches u's unreached neighbors v,
 * in neighbors() order, for which admit(v) holds. A caller that
 * inspects each node as it leaves the queue pairs next() with
 * expand() itself; run() drains the queue. parent() and distance()
 * hold only for reached nodes.
 */
class GraphSearch
{
  public:
    explicit GraphSearch(const CouplingGraph &hw);

    /** Forget the previous search and start one at `root`. */
    void restart(int root)
    {
        ++generation_;
        order_.clear();
        head_ = 0;
        addRoot(root);
    }

    /**
     * Reach `root` (if unreached) at distance 0 with no parent. It
     * joins the back of the queue, so a root added while nodes are
     * still pending is expanded after them.
     */
    void addRoot(int root)
    {
        if (!reached(root))
            reach(root, -1, 0);
    }

    /** True while reached nodes wait to be expanded. */
    bool pending() const { return head_ < order_.size(); }

    /** Take the next reached node off the queue. */
    int next() { return order_[head_++]; }

    /** Reach every unreached neighbor v of `u` with admit(v). */
    template <typename Admit>
    void expand(int u, Admit &&admit)
    {
        for (int v : hw_.neighbors(u)) {
            if (!reached(v) && admit(v))
                reach(v, u, dist_[u] + 1);
        }
    }

    /** Expand nodes until the queue is empty. */
    template <typename Admit>
    void run(Admit &&admit)
    {
        while (pending())
            expand(next(), admit);
    }

    bool reached(int v) const { return stamp_[v] == generation_; }
    /** The node that reached `v`; -1 for a root. */
    int parent(int v) const { return parent_[v]; }
    /** Hops from `v`'s root. */
    int distance(int v) const { return dist_[v]; }
    /** Every reached node, in the order it was reached. */
    const std::vector<int> &order() const { return order_; }

    /**
     * Fill `path` with the nodes from `v`'s root to `v`, both
     * included, reusing its capacity.
     */
    void pathTo(int v, std::vector<int> &path) const;

  private:
    void reach(int v, int parent, int dist)
    {
        stamp_[v] = generation_;
        parent_[v] = parent;
        dist_[v] = dist;
        order_.push_back(v);
    }

    const CouplingGraph &hw_;
    /** The queue: order_[head_..] are reached but not expanded. */
    std::vector<int> order_;
    size_t head_ = 0;
    std::vector<int> parent_;
    std::vector<int> dist_;
    /** A node is reached when its stamp equals generation_. */
    std::vector<uint64_t> stamp_;
    uint64_t generation_ = 1;
};

} // namespace tetris

#endif // TETRIS_HARDWARE_COUPLING_GRAPH_HH
