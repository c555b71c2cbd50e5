/**
 * @file
 * Peephole optimizer tests: each cancellation rule, the fixpoint's
 * pass structure, randomized unitary-preservation property tests,
 * and a gate-by-gate comparison against a copy of the fixpoint whose
 * passes visit every live gate.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "baselines/paulihedral.hh"
#include "circuit/peephole.hh"
#include "common/rng.hh"
#include "core/compiler.hh"
#include "sim/statevector.hh"
#include "sweeps.hh"

namespace tetris
{
namespace
{

TEST(Peephole, CancelsAdjacentHadamards)
{
    Circuit c(1);
    c.h(0);
    c.h(0);
    Circuit r = peepholeOptimize(c);
    EXPECT_EQ(r.size(), 0u);
}

TEST(Peephole, CancelsSSdgPairs)
{
    Circuit c(1);
    c.s(0);
    c.sdg(0);
    c.sdg(0);
    c.s(0);
    EXPECT_EQ(peepholeOptimize(c).size(), 0u);
}

TEST(Peephole, CancelsAdjacentCx)
{
    Circuit c(2);
    c.cx(0, 1);
    c.cx(0, 1);
    EXPECT_EQ(peepholeOptimize(c).size(), 0u);
}

TEST(Peephole, DoesNotCancelReversedCx)
{
    Circuit c(2);
    c.cx(0, 1);
    c.cx(1, 0);
    EXPECT_EQ(peepholeOptimize(c).size(), 2u);
}

TEST(Peephole, MergesRotations)
{
    Circuit c(1);
    c.rz(0, 0.25);
    c.rz(0, 0.50);
    Circuit r = peepholeOptimize(c);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_NEAR(r.gates()[0].angle, 0.75, 1e-12);
}

TEST(Peephole, RemovesZeroRotations)
{
    Circuit c(1);
    c.rz(0, 0.4);
    c.rz(0, -0.4);
    EXPECT_EQ(peepholeOptimize(c).size(), 0u);
}

TEST(Peephole, RzCommutesThroughCxControl)
{
    Circuit c(2);
    c.cx(0, 1);
    c.rz(0, 0.7); // diagonal on the control: commutes
    c.cx(0, 1);
    Circuit r = peepholeOptimize(c);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.gates()[0].kind, GateKind::RZ);
}

TEST(Peephole, XCommutesThroughCxTarget)
{
    Circuit c(2);
    c.cx(0, 1);
    c.x(1);
    c.cx(0, 1);
    Circuit r = peepholeOptimize(c);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.gates()[0].kind, GateKind::X);
}

TEST(Peephole, RzOnTargetBlocksCxCancellation)
{
    Circuit c(2);
    c.cx(0, 1);
    c.rz(1, 0.7); // on the target: does NOT commute
    c.cx(0, 1);
    EXPECT_EQ(peepholeOptimize(c).size(), 3u);
}

TEST(Peephole, SharedControlCxsCommute)
{
    Circuit c(3);
    c.cx(0, 1);
    c.cx(0, 2); // shares the control with both neighbors
    c.cx(0, 1);
    Circuit r = peepholeOptimize(c);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.gates()[0].q1, 2);
}

TEST(Peephole, SharedTargetCxsCommute)
{
    Circuit c(3);
    c.cx(0, 2);
    c.cx(1, 2);
    c.cx(0, 2);
    Circuit r = peepholeOptimize(c);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.gates()[0].q0, 1);
}

TEST(Peephole, CancelsSwapPairs)
{
    Circuit c(2);
    c.swap(0, 1);
    c.swap(1, 0);
    EXPECT_EQ(peepholeOptimize(c).size(), 0u);
}

TEST(Peephole, MeasureBlocksCancellation)
{
    Circuit c(2);
    c.cx(0, 1);
    c.measure(1);
    c.cx(0, 1);
    EXPECT_EQ(peepholeOptimize(c).size(), 3u);
}

TEST(Peephole, HSandwichCancelsIteratively)
{
    // Sdg H H S collapses over two fixpoint passes that change
    // something, then one that confirms.
    Circuit c(1);
    c.sdg(0);
    c.h(0);
    c.h(0);
    c.s(0);
    PeepholeStats stats;
    EXPECT_EQ(peepholeOptimize(c, &stats).size(), 0u);
    EXPECT_EQ(stats.passes, 3);
}

TEST(Peephole, NestedSandwichTakesOnePassPerLayer)
{
    // X H S (H H) Sdg H X: each layer's outer gate was visited before
    // the layer inside it cancelled, so each layer waits for the next
    // pass. Four layers, then one pass that confirms.
    Circuit c(1);
    c.x(0);
    c.h(0);
    c.s(0);
    c.h(0);
    c.h(0);
    c.sdg(0);
    c.h(0);
    c.x(0);
    PeepholeStats stats;
    EXPECT_EQ(peepholeOptimize(c, &stats).size(), 0u);
    EXPECT_EQ(stats.passes, 5);
    EXPECT_EQ(stats.removedOneQubit, 8u);
}

TEST(Peephole, ReportsStats)
{
    Circuit c(2);
    c.h(0);
    c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    PeepholeStats stats;
    peepholeOptimize(c, &stats);
    EXPECT_EQ(stats.removedOneQubit, 2u);
    EXPECT_EQ(stats.removedCx, 2u);
}

/** Random-circuit property: the pass must preserve the unitary. */
class PeepholeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PeepholeProperty, PreservesUnitary)
{
    const int seed = GetParam();
    Rng rng(seed);
    const int n = 4;
    Circuit c(n);
    for (int i = 0; i < 120; ++i) {
        switch (rng.uniformInt(0, 7)) {
          case 0: c.h(rng.uniformInt(0, n - 1)); break;
          case 1: c.x(rng.uniformInt(0, n - 1)); break;
          case 2: c.s(rng.uniformInt(0, n - 1)); break;
          case 3: c.sdg(rng.uniformInt(0, n - 1)); break;
          case 4: c.rz(rng.uniformInt(0, n - 1), rng.uniform(-3, 3));
                  break;
          default: {
            int a = rng.uniformInt(0, n - 1);
            int b = rng.uniformInt(0, n - 1);
            if (a == b)
                b = (b + 1) % n;
            if (rng.bernoulli(0.85))
                c.cx(a, b);
            else
                c.swap(a, b);
          }
        }
    }
    Circuit r = peepholeOptimize(c);
    EXPECT_LE(r.size(), c.size());

    Statevector sa = Statevector::random(n, rng);
    Statevector sb = sa;
    sa.applyCircuit(c);
    sb.applyCircuit(r);
    EXPECT_NEAR(sa.overlapWith(sb), 1.0, 1e-8) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, PeepholeProperty,
                         ::testing::Range(0, 24));

/**
 * The peephole fixpoint as it was before passes revisited only marked
 * gates, kept as the reference: every pass visits every live gate,
 * and the result is rebuilt gate by gate.
 */
namespace every_gate
{

constexpr int kNone = -1;

class WireGraph
{
  public:
    explicit WireGraph(const Circuit &c)
        : gates_(c.gates()), alive_(gates_.size(), true),
          next_(gates_.size(), {kNone, kNone}),
          prev_(gates_.size(), {kNone, kNone})
    {
        std::vector<int> last(c.numQubits(), kNone);
        for (size_t i = 0; i < gates_.size(); ++i) {
            const Gate &g = gates_[i];
            linkWire(static_cast<int>(i), 0, g.q0, last);
            if (g.isTwoQubit())
                linkWire(static_cast<int>(i), 1, g.q1, last);
        }
    }

    const Gate &gate(int i) const { return gates_[i]; }
    Gate &gate(int i) { return gates_[i]; }
    bool alive(int i) const { return alive_[i]; }
    size_t size() const { return gates_.size(); }

    int
    slotOf(int i, int q) const
    {
        return gates_[i].q0 == q ? 0 : 1;
    }

    int
    nextOn(int i, int q) const
    {
        return next_[i][slotOf(i, q)];
    }

    void
    remove(int i)
    {
        const Gate &g = gates_[i];
        unlinkWire(i, 0);
        if (g.isTwoQubit())
            unlinkWire(i, 1);
        alive_[i] = false;
    }

    Circuit
    toCircuit(int num_qubits) const
    {
        Circuit out(num_qubits);
        for (size_t i = 0; i < gates_.size(); ++i) {
            if (alive_[i])
                out.add(gates_[i]);
        }
        return out;
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

bool
isDiagonal1q(GateKind k)
{
    return k == GateKind::RZ || k == GateKind::S || k == GateKind::Sdg;
}

bool
isXBasis1q(GateKind k)
{
    return k == GateKind::X || k == GateKind::RX;
}

bool
isInversePair1q(GateKind a, GateKind b)
{
    return (a == GateKind::H && b == GateKind::H) ||
           (a == GateKind::X && b == GateKind::X) ||
           (a == GateKind::S && b == GateKind::Sdg) ||
           (a == GateKind::Sdg && b == GateKind::S);
}

bool
canHop1q(GateKind moving, const Gate &j, int q)
{
    if (j.kind == GateKind::MEASURE || j.kind == GateKind::RESET)
        return false;
    if (isDiagonal1q(moving)) {
        if (j.isOneQubit())
            return isDiagonal1q(j.kind);
        return j.kind == GateKind::CX && j.q0 == q;
    }
    if (isXBasis1q(moving)) {
        if (j.isOneQubit())
            return isXBasis1q(j.kind);
        return j.kind == GateKind::CX && j.q1 == q;
    }
    return false;
}

bool
commutesWithCxOnWire(const Gate &j, int q, bool role_control)
{
    if (j.kind == GateKind::MEASURE || j.kind == GateKind::RESET)
        return false;
    if (role_control) {
        if (j.isOneQubit())
            return isDiagonal1q(j.kind);
        return j.kind == GateKind::CX && j.q0 == q;
    }
    if (j.isOneQubit())
        return isXBasis1q(j.kind);
    return j.kind == GateKind::CX && j.q1 == q;
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
    Peephole(const Circuit &in, const PeepholeOptions &opts)
        : graph_(in), opts_(opts), numQubits_(in.numQubits())
    {
    }

    Circuit
    run(PeepholeStats *stats)
    {
        bool changed = true;
        int pass = 0;
        while (changed && pass < opts_.maxPasses) {
            changed = false;
            ++pass;
            for (int i = 0; i < static_cast<int>(graph_.size()); ++i) {
                if (!graph_.alive(i))
                    continue;
                if (tryReduce(i))
                    changed = true;
            }
        }
        stats_.passes = pass;
        *stats = stats_;
        return graph_.toCircuit(numQubits_);
    }

  private:
    bool
    tryReduce(int i)
    {
        switch (graph_.gate(i).kind) {
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
        int j = graph_.nextOn(i, q);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            const Gate &gj = graph_.gate(j);
            if (gj.isOneQubit() && isInversePair1q(g.kind, gj.kind)) {
                graph_.remove(j);
                graph_.remove(i);
                stats_.removedOneQubit += 2;
                return true;
            }
            if (!opts_.commutationAware || !canHop1q(g.kind, gj, q))
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
            graph_.remove(i);
            stats_.removedOneQubit += 1;
            return true;
        }
        int q = g.q0;
        int j = graph_.nextOn(i, q);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            Gate &gj = graph_.gate(j);
            if (gj.kind == g.kind && gj.q0 == q) {
                gj.angle = normalizeAngle(gj.angle + g.angle);
                graph_.remove(i);
                ++stats_.mergedRotations;
                if (gj.angle == 0.0) {
                    graph_.remove(j);
                    stats_.removedOneQubit += 1;
                }
                return true;
            }
            if (!opts_.commutationAware || !canHop1q(g.kind, gj, q))
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
        int j = graph_.nextOn(i, c);
        int hops = 0;
        while (j != kNone && hops < opts_.scanWindow) {
            const Gate &gj = graph_.gate(j);
            if (gj.kind == GateKind::CX && gj.q0 == c && gj.q1 == t) {
                if (targetWireClear(i, j, t)) {
                    graph_.remove(j);
                    graph_.remove(i);
                    stats_.removedCx += 2;
                    return true;
                }
                return false;
            }
            if (!opts_.commutationAware ||
                !commutesWithCxOnWire(gj, c, true)) {
                return false;
            }
            j = graph_.nextOn(j, c);
            ++hops;
        }
        return false;
    }

    bool
    targetWireClear(int i, int j, int t)
    {
        int k = graph_.nextOn(i, t);
        int hops = 0;
        while (k != kNone && hops < opts_.scanWindow) {
            if (k == j)
                return true;
            if (!opts_.commutationAware ||
                !commutesWithCxOnWire(graph_.gate(k), t, false)) {
                return false;
            }
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
        graph_.remove(j0);
        graph_.remove(i);
        stats_.removedSwap += 2;
        return true;
    }

    WireGraph graph_;
    PeepholeOptions opts_;
    int numQubits_;
    PeepholeStats stats_;
};

} // namespace every_gate

/**
 * Run both fixpoints on `in` and require the same gates (kind, wires
 * and the angle's bit pattern) and the same stats, passes included.
 * Returns the number of gates the pass removed.
 */
size_t
expectMatchesEveryGate(const Circuit &in, const PeepholeOptions &opts)
{
    PeepholeStats want_stats, got_stats;
    const Circuit want =
        every_gate::Peephole(in, opts).run(&want_stats);
    const Circuit got = peepholeOptimize(in, &got_stats, opts);
    EXPECT_EQ(got.numQubits(), want.numQubits());
    EXPECT_EQ(got.size(), want.size());
    if (got.size() == want.size()) {
        for (size_t k = 0; k < got.size(); ++k) {
            const Gate &a = got.gates()[k];
            const Gate &b = want.gates()[k];
            if (a.kind != b.kind || a.q0 != b.q0 || a.q1 != b.q1 ||
                std::bit_cast<uint64_t>(a.angle) !=
                    std::bit_cast<uint64_t>(b.angle)) {
                ADD_FAILURE() << "gate " << k << ": " << a.toString()
                              << " != " << b.toString();
                break;
            }
        }
    }
    EXPECT_EQ(got_stats.removedCx, want_stats.removedCx);
    EXPECT_EQ(got_stats.removedSwap, want_stats.removedSwap);
    EXPECT_EQ(got_stats.removedOneQubit, want_stats.removedOneQubit);
    EXPECT_EQ(got_stats.mergedRotations, want_stats.mergedRotations);
    EXPECT_EQ(got_stats.passes, want_stats.passes);
    return in.size() - want.size();
}

/**
 * A random circuit on 1-6 wires with up to 400 gates of every kind.
 * Angles come mostly from a few multiples of pi/4, so merges reach
 * zero and +-pi, and some rotations start at zero.
 */
Circuit
randomCircuit(Rng &rng)
{
    constexpr double pi = std::numbers::pi;
    const double angles[] = {0.0, pi / 4, -pi / 4, pi / 2, -pi / 2, pi, -pi};
    auto angle = [&] {
        return rng.bernoulli(0.8) ? angles[rng.index(std::size(angles))]
                                  : rng.uniform(-4.0, 4.0);
    };
    const int n = rng.uniformInt(1, 6);
    const int size = rng.uniformInt(0, 400);
    Circuit c(n);
    for (int k = 0; k < size; ++k) {
        const int q = rng.uniformInt(0, n - 1);
        int other = rng.uniformInt(0, n - 1);
        if (other == q)
            other = (q + 1) % n;
        switch (rng.uniformInt(0, n == 1 ? 7 : 12)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.s(q); break;
          case 3: c.sdg(q); break;
          case 4: case 5: c.rz(q, angle()); break;
          case 6: c.rx(q, angle()); break;
          case 7: rng.bernoulli(0.5) ? c.measure(q) : c.reset(q); break;
          case 8: c.swap(q, other); break;
          default: c.cx(q, other); break;
        }
    }
    return c;
}

TEST(PeepholeReference, RandomCircuitsMatchEveryGatePasses)
{
    std::vector<PeepholeOptions> option_sets(1);
    option_sets.emplace_back().commutationAware = false;
    for (int w : {1, 2, 3})
        option_sets.emplace_back().scanWindow = w;
    for (int p : {1, 2, 3})
        option_sets.emplace_back().maxPasses = p;

    Rng rng(0x9e3779b9u);
    size_t removed = 0;
    for (int round = 0; round < 300; ++round) {
        const Circuit c = randomCircuit(rng);
        for (size_t o = 0; o < option_sets.size(); ++o) {
            SCOPED_TRACE(testing::Message()
                         << "circuit " << round << ", option set " << o);
            removed += expectMatchesEveryGate(c, option_sets[o]);
            if (HasFailure())
                return;
        }
    }
    // The circuits exercise the rules, not only the bookkeeping.
    EXPECT_GT(removed, 10000u);
}

TEST(PeepholeReference, TableTwoQuickCircuitsMatchEveryGatePasses)
{
    // table2_main's quick workloads, compiled without the peephole.
    PaulihedralOptions ph;
    ph.runPeephole = false;
    TetrisOptions tetris;
    tetris.runPeephole = false;
    const bench::Sweep sweep = bench::table2Sweep(true);
    for (const bench::Workload &w : sweep.workloads) {
        SCOPED_TRACE(w.name);
        EXPECT_GT(expectMatchesEveryGate(
                      compilePaulihedral(w.blocks, *w.hw, ph).circuit,
                      PeepholeOptions()),
                  0u);
        EXPECT_GT(expectMatchesEveryGate(
                      compileTetris(w.blocks, *w.hw, tetris).circuit,
                      PeepholeOptions()),
                  0u);
    }
}

} // namespace
} // namespace tetris
