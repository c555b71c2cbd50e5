#include "circuit/peephole.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace tetris
{

namespace
{

constexpr int kNone = -1;

/** Doubly linked per-wire gate list over the input's gate vector. */
class WireGraph
{
  public:
    WireGraph(int num_qubits, std::vector<Gate> gates)
        : gates_(std::move(gates)), alive_(gates_.size(), true),
          next_(gates_.size(), {kNone, kNone}),
          prev_(gates_.size(), {kNone, kNone})
    {
        std::vector<int> last(num_qubits, kNone);
        for (size_t i = 0; i < gates_.size(); ++i) {
            const Gate &g = gates_[i];
            linkWire(static_cast<int>(i), 0, g.q0, last);
            if (g.isTwoQubit())
                linkWire(static_cast<int>(i), 1, g.q1, last);
        }
    }

    const Gate &gate(int i) const { return gates_[i]; }
    Gate &gate(int i) { return gates_[i]; }
    size_t size() const { return gates_.size(); }

    /** Which wire slot (0/1) of gate i carries qubit q. */
    int
    slotOf(int i, int q) const
    {
        const Gate &g = gates_[i];
        if (g.q0 == q)
            return 0;
        TETRIS_ASSERT(g.isTwoQubit() && g.q1 == q);
        return 1;
    }

    int
    nextOn(int i, int q) const
    {
        return next_[i][slotOf(i, q)];
    }

    int
    prevOn(int i, int q) const
    {
        return prev_[i][slotOf(i, q)];
    }

    /** Unlink gate i from all of its wires and mark it dead. */
    void
    remove(int i)
    {
        TETRIS_ASSERT(alive_[i]);
        const Gate &g = gates_[i];
        unlinkWire(i, 0);
        if (g.isTwoQubit())
            unlinkWire(i, 1);
        alive_[i] = false;
    }

    /**
     * Move the surviving gates, in order, to the front of the gate
     * vector, trim it to exact capacity and hand it over.
     */
    std::vector<Gate>
    takeSurvivors() &&
    {
        size_t kept = 0;
        for (size_t i = 0; i < gates_.size(); ++i) {
            if (alive_[i])
                gates_[kept++] = gates_[i];
        }
        gates_.resize(kept);
        gates_.shrink_to_fit();
        return std::move(gates_);
    }

  private:
    void
    linkWire(int i, int slot, int q, std::vector<int> &last)
    {
        prev_[i][slot] = last[q];
        if (last[q] != kNone) {
            int p = last[q];
            next_[p][slotOf(p, q)] = i;
        }
        last[q] = i;
    }

    void
    unlinkWire(int i, int slot)
    {
        int q = slot == 0 ? gates_[i].q0 : gates_[i].q1;
        int p = prev_[i][slot];
        int n = next_[i][slot];
        if (p != kNone)
            next_[p][slotOf(p, q)] = n;
        if (n != kNone)
            prev_[n][slotOf(n, q)] = p;
    }

    std::vector<Gate> gates_;
    std::vector<bool> alive_;
    std::vector<std::array<int, 2>> next_;
    std::vector<std::array<int, 2>> prev_;
};

/** One bit per gate index; starts with every bit set. */
class DirtySet
{
  public:
    explicit DirtySet(size_t n)
        : size_(n), words_((n + 63) / 64, ~uint64_t{0})
    {
        if (n % 64 != 0)
            words_.back() = (uint64_t{1} << (n % 64)) - 1;
    }

    void set(size_t i) { words_[i / 64] |= uint64_t{1} << (i % 64); }
    void reset(size_t i) { words_[i / 64] &= ~(uint64_t{1} << (i % 64)); }

    /** The lowest set index at or above `from`, or n if none is. */
    size_t
    next(size_t from) const
    {
        size_t w = from / 64;
        if (w >= words_.size())
            return size_;
        uint64_t bits = words_[w] & (~uint64_t{0} << (from % 64));
        while (bits == 0) {
            if (++w == words_.size())
                return size_;
            bits = words_[w];
        }
        return w * 64 + static_cast<size_t>(std::countr_zero(bits));
    }

  private:
    size_t size_;
    std::vector<uint64_t> words_;
};

/**
 * The commuting class of a gate on one of its wires. Diagonal gates
 * (RZ, S, Sdg, a CX controlled on the wire) commute with each other,
 * and so do X-basis gates (X, RX, a CX targeting the wire). A partner
 * scan from a gate hops only over gates of the gate's own class; H,
 * SWAP, MEASURE and RESET belong to neither, so their scans stop at
 * the first gate.
 */
enum class WireClass : uint8_t
{
    None,
    Diagonal,
    XBasis,
};

WireClass
wireClass(const Gate &g, int q)
{
    switch (g.kind) {
      case GateKind::RZ:
      case GateKind::S:
      case GateKind::Sdg:
        return WireClass::Diagonal;
      case GateKind::X:
      case GateKind::RX:
        return WireClass::XBasis;
      case GateKind::CX:
        return g.q0 == q ? WireClass::Diagonal : WireClass::XBasis;
      default:
        return WireClass::None;
    }
}

/** True if kinds a then b on the same wire cancel to identity. */
bool
isInversePair1q(GateKind a, GateKind b)
{
    if (a == GateKind::H && b == GateKind::H)
        return true;
    if (a == GateKind::X && b == GateKind::X)
        return true;
    if (a == GateKind::S && b == GateKind::Sdg)
        return true;
    if (a == GateKind::Sdg && b == GateKind::S)
        return true;
    return false;
}

double
normalizeAngle(double a)
{
    constexpr double two_pi = 6.283185307179586476925286766559;
    a = std::fmod(a, two_pi);
    if (a > two_pi / 2)
        a -= two_pi;
    if (a < -two_pi / 2)
        a += two_pi;
    return a;
}

class Peephole
{
  public:
    Peephole(Circuit in, const PeepholeOptions &opts)
        : numQubits_(in.numQubits()),
          graph_(numQubits_, std::move(in).takeGates()),
          dirty_(graph_.size()), opts_(opts)
    {
    }

    Circuit
    run(PeepholeStats *stats) &&
    {
        const size_t n = graph_.size();
        bool changed = true;
        int pass = 0;
        while (changed && pass < opts_.maxPasses) {
            changed = false;
            ++pass;
            // A bit set above i during the visit is reached in this
            // pass; one set below it waits for the next.
            for (size_t i = dirty_.next(0); i < n; i = dirty_.next(i + 1)) {
                dirty_.reset(i);
                if (tryReduce(static_cast<int>(i)))
                    changed = true;
            }
        }
        stats_.passes = pass;
        if (stats)
            *stats = stats_;
        return Circuit(numQubits_, std::move(graph_).takeSurvivors());
    }

  private:
    /**
     * Unlink gate i, first marking every gate whose partner scan
     * could reach it. A scan depends only on the gate and the live
     * gates its window covers, so an unmarked gate would fail again.
     * Only live gates are ever marked.
     */
    void
    remove(int i)
    {
        const Gate &g = graph_.gate(i);
        markScanners(graph_.prevOn(i, g.q0), g.q0);
        if (g.isTwoQubit())
            markScanners(graph_.prevOn(i, g.q1), g.q1);
        graph_.remove(i);
        dirty_.reset(i);
    }

    /**
     * Mark p, the gate before a removed one on wire q, and then the
     * gates before p whose scan along q hops over every gate up to
     * the removed position: those of p's class, within scanWindow.
     */
    void
    markScanners(int p, int q)
    {
        if (p == kNone)
            return;
        dirty_.set(p);
        const WireClass cls = wireClass(graph_.gate(p), q);
        if (!opts_.commutationAware || cls == WireClass::None)
            return;
        for (int hops = 1; hops < opts_.scanWindow; ++hops) {
            p = graph_.prevOn(p, q);
            if (p == kNone || wireClass(graph_.gate(p), q) != cls)
                return;
            dirty_.set(p);
        }
    }

    /** Can a scan from a gate of class `cls` on wire q hop over j? */
    bool
    canHop(WireClass cls, const Gate &j, int q) const
    {
        return opts_.commutationAware && cls != WireClass::None &&
               wireClass(j, q) == cls;
    }

    bool
    tryReduce(int i)
    {
        const Gate g = graph_.gate(i);
        switch (g.kind) {
          case GateKind::H:
          case GateKind::X:
          case GateKind::S:
          case GateKind::Sdg:
            return tryCancel1q(i);
          case GateKind::RZ:
          case GateKind::RX:
            return tryMergeRotation(i);
          case GateKind::CX:
            return tryCancelCx(i);
          case GateKind::SWAP:
            return tryCancelSwap(i);
          default:
            return false;
        }
    }

    bool
    tryCancel1q(int i)
    {
        const Gate &g = graph_.gate(i);
        int q = g.q0;
        const WireClass cls = wireClass(g, q);
        int j = graph_.nextOn(i, q);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            const Gate &gj = graph_.gate(j);
            if (gj.isOneQubit() && isInversePair1q(g.kind, gj.kind)) {
                remove(j);
                remove(i);
                stats_.removedOneQubit += 2;
                return true;
            }
            if (!canHop(cls, gj, q))
                return false;
            j = graph_.nextOn(j, q);
            ++hops;
        }
        return false;
    }

    bool
    tryMergeRotation(int i)
    {
        const Gate &g = graph_.gate(i);
        if (normalizeAngle(g.angle) == 0.0) {
            remove(i);
            stats_.removedOneQubit += 1;
            return true;
        }
        int q = g.q0;
        const WireClass cls = wireClass(g, q);
        int j = graph_.nextOn(i, q);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            Gate &gj = graph_.gate(j);
            if (gj.kind == g.kind && gj.q0 == q) {
                gj.angle = normalizeAngle(gj.angle + g.angle);
                remove(i);
                ++stats_.mergedRotations;
                if (gj.angle == 0.0) {
                    remove(j);
                    stats_.removedOneQubit += 1;
                } else {
                    dirty_.set(j);
                }
                return true;
            }
            if (!canHop(cls, gj, q))
                return false;
            j = graph_.nextOn(j, q);
            ++hops;
        }
        return false;
    }

    bool
    tryCancelCx(int i)
    {
        const Gate &g = graph_.gate(i);
        int c = g.q0, t = g.q1;
        // Scan along the control wire for a matching CX.
        int j = graph_.nextOn(i, c);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            const Gate &gj = graph_.gate(j);
            if (gj.kind == GateKind::CX && gj.q0 == c && gj.q1 == t) {
                if (targetWireClear(i, j, t)) {
                    remove(j);
                    remove(i);
                    stats_.removedCx += 2;
                    return true;
                }
                return false;
            }
            if (!canHop(WireClass::Diagonal, gj, c))
                return false;
            j = graph_.nextOn(j, c);
            ++hops;
        }
        return false;
    }

    /**
     * Check that every gate on wire t strictly between gates i and j
     * commutes with a CX targeting t.
     */
    bool
    targetWireClear(int i, int j, int t)
    {
        int k = graph_.nextOn(i, t);
        int hops = 0;
        while (k != kNone && hops < opts_.scanWindow) {
            if (k == j)
                return true;
            if (!canHop(WireClass::XBasis, graph_.gate(k), t))
                return false;
            k = graph_.nextOn(k, t);
            ++hops;
        }
        return false;
    }

    bool
    tryCancelSwap(int i)
    {
        const Gate &g = graph_.gate(i);
        int j0 = graph_.nextOn(i, g.q0);
        int j1 = graph_.nextOn(i, g.q1);
        if (j0 == kNone || j0 != j1)
            return false;
        const Gate &gj = graph_.gate(j0);
        if (gj.kind != GateKind::SWAP)
            return false;
        bool same_pair = (gj.q0 == g.q0 && gj.q1 == g.q1) ||
                         (gj.q0 == g.q1 && gj.q1 == g.q0);
        if (!same_pair)
            return false;
        remove(j0);
        remove(i);
        stats_.removedSwap += 2;
        return true;
    }

    int numQubits_;
    WireGraph graph_;
    /** Gates whose scan may have changed since their last visit. */
    DirtySet dirty_;
    PeepholeOptions opts_;
    PeepholeStats stats_;
};

} // namespace

Circuit
peepholeOptimize(Circuit in, PeepholeStats *stats,
                 const PeepholeOptions &opts)
{
    return Peephole(std::move(in), opts).run(stats);
}

} // namespace tetris
