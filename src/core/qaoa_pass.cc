#include "core/qaoa_pass.hh"

#include <algorithm>
#include <limits>

#include "circuit/peephole.hh"
#include "common/logging.hh"

namespace tetris
{

namespace
{

/**
 * SWAP is chosen over bridging when its total distance reduction
 * across pending gates reaches this threshold.
 */
constexpr int kSwapBenefitThreshold = 2;

/** One pending rotation: ZZ on (u, v), or single-Z when v < 0. */
struct PendingGate
{
    int u;
    int v;
    double angle;
};

} // namespace

CompileResult
compileQaoaTetris(const std::vector<PauliBlock> &blocks,
                  const CouplingGraph &hw, const QaoaPassOptions &opts)
{
    StageClock clock;
    CompileResult result;
    CompileStats &stats = result.stats;

    const int num_logical = blocksNumQubits(blocks);
    TETRIS_ASSERT(num_logical <= hw.numQubits());

    // Flatten blocks into Z/ZZ rotations.
    std::vector<PendingGate> pending;
    std::vector<int> gates_left(num_logical, 0);
    for (const auto &b : blocks) {
        TETRIS_ASSERT(b.size() == 1,
                      "QAOA pass expects single-string blocks");
        const PauliString &s = b.string(0);
        auto support = s.support();
        TETRIS_ASSERT(support.size() >= 1 && support.size() <= 2,
                      "QAOA pass expects 1- or 2-local strings");
        for (size_t q : support) {
            TETRIS_ASSERT(s.op(q) == PauliOp::Z,
                          "QAOA pass expects Z-basis strings");
        }
        double angle = b.weight(0) * b.theta();
        if (support.size() == 1) {
            pending.push_back({static_cast<int>(support[0]), -1, angle});
            ++gates_left[support[0]];
        } else {
            pending.push_back({static_cast<int>(support[0]),
                               static_cast<int>(support[1]), angle});
            ++gates_left[support[0]];
            ++gates_left[support[1]];
        }
    }

    Layout layout(num_logical, hw.numQubits());
    Circuit circ(hw.numQubits());
    std::vector<bool> retired(num_logical, false);

    auto retire_if_done = [&](int logical) {
        if (!opts.enableQubitReuse || retired[logical] ||
            gates_left[logical] > 0) {
            return;
        }
        int pos = layout.physOf(logical);
        circ.measure(pos);
        circ.reset(pos);
        layout.evict(logical);
        retired[logical] = true;
    };

    auto emit_gate = [&](const PendingGate &g) {
        if (g.v < 0) {
            circ.rz(layout.physOf(g.u), g.angle);
            --gates_left[g.u];
            retire_if_done(g.u);
            return;
        }
        int pu = layout.physOf(g.u);
        int pv = layout.physOf(g.v);
        TETRIS_ASSERT(hw.connected(pu, pv));
        circ.cx(pu, pv);
        circ.rz(pv, g.angle);
        circ.cx(pu, pv);
        stats.synthesis.emittedCx += 2;
        --gates_left[g.u];
        --gates_left[g.v];
        retire_if_done(g.u);
        retire_if_done(g.v);
    };

    auto emit_bridged = [&](const PendingGate &g,
                            const std::vector<int> &path) {
        // Chain rooted at the far endpoint: forward CNOTs, RZ, mirror.
        for (size_t k = 0; k + 1 < path.size(); ++k) {
            circ.cx(path[k], path[k + 1]);
            ++stats.synthesis.emittedCx;
        }
        circ.rz(path.back(), g.angle);
        for (size_t k = path.size() - 1; k >= 1; --k) {
            circ.cx(path[k - 1], path[k]);
            ++stats.synthesis.emittedCx;
        }
        stats.synthesis.bridgeNodes += path.size() - 2;
        --gates_left[g.u];
        --gates_left[g.v];
        retire_if_done(g.u);
        retire_if_done(g.v);
    };

    auto gate_distance = [&](const PendingGate &g) {
        if (g.v < 0)
            return 0;
        return hw.distance(layout.physOf(g.u), layout.physOf(g.v));
    };

    while (!pending.empty()) {
        // Phase 1: drain everything currently executable.
        bool drained = true;
        while (drained) {
            drained = false;
            for (size_t i = 0; i < pending.size();) {
                if (gate_distance(pending[i]) <= 1) {
                    emit_gate(pending[i]);
                    pending.erase(pending.begin() + i);
                    drained = true;
                } else {
                    ++i;
                }
            }
        }
        if (pending.empty())
            break;

        // Phase 2: the front gate is the pending gate with the
        // smallest physical distance.
        size_t front = 0;
        for (size_t i = 1; i < pending.size(); ++i) {
            if (gate_distance(pending[i]) < gate_distance(pending[front]))
                front = i;
        }
        const PendingGate g = pending[front];
        int pu = layout.physOf(g.u);
        int pv = layout.physOf(g.v);

        // Candidate SWAPs: edges incident to the front gate's qubits.
        // Benefit = total distance reduction across pending gates.
        int best_benefit = std::numeric_limits<int>::min();
        std::pair<int, int> best_swap{-1, -1};
        auto eval_swap = [&](int a, int b) {
            int before = 0, after = 0;
            for (const auto &p : pending) {
                if (p.v < 0)
                    continue;
                int x = layout.physOf(p.u);
                int y = layout.physOf(p.v);
                before += hw.distance(x, y);
                int xs = x == a ? b : (x == b ? a : x);
                int ys = y == a ? b : (y == b ? a : y);
                after += hw.distance(xs, ys);
            }
            int benefit = before - after;
            if (benefit > best_benefit) {
                best_benefit = benefit;
                best_swap = {a, b};
            }
        };
        for (int nb : hw.neighbors(pu))
            eval_swap(pu, nb);
        for (int nb : hw.neighbors(pv))
            eval_swap(pv, nb);

        // Bridging candidate: a shortest path whose interior is all
        // free ancillas.
        std::vector<int> bridge_path;
        if (opts.enableBridging) {
            std::vector<bool> occupied(hw.numQubits(), false);
            for (int q = 0; q < hw.numQubits(); ++q)
                occupied[q] = !layout.isFree(q);
            std::vector<int> path = hw.shortestPath(pu, pv, &occupied);
            if (path.size() >= 3 &&
                static_cast<int>(path.size()) ==
                    hw.distance(pu, pv) + 1) {
                bridge_path = std::move(path);
            }
        }

        // Lookahead decision (Sec. V-C): SWAP only when it helps
        // future gates enough; otherwise bridge if possible.
        if (!bridge_path.empty() &&
            best_benefit < kSwapBenefitThreshold) {
            emit_bridged(g, bridge_path);
            pending.erase(pending.begin() + front);
            continue;
        }

        if (best_swap.first >= 0 && best_benefit > 0) {
            circ.swap(best_swap.first, best_swap.second);
            layout.applySwap(best_swap.first, best_swap.second);
            ++stats.synthesis.insertedSwaps;
            continue;
        }

        // Fallback: no profitable swap exists -- bridge if we can,
        // else route the front gate fully along its shortest path so
        // the next drain phase is guaranteed to emit it.
        if (!bridge_path.empty()) {
            emit_bridged(g, bridge_path);
            pending.erase(pending.begin() + front);
            continue;
        }
        std::vector<int> path = hw.shortestPath(pu, pv);
        TETRIS_ASSERT(path.size() >= 3);
        for (size_t k = 1; k + 1 < path.size(); ++k) {
            circ.swap(path[k - 1], path[k]);
            layout.applySwap(path[k - 1], path[k]);
            ++stats.synthesis.insertedSwaps;
        }
    }

    clock.lap(stats.synthSeconds);
    if (opts.runPeephole)
        circ = peepholeOptimize(std::move(circ));
    clock.lap(stats.peepholeSeconds);

    result.circuit = std::move(circ);
    result.finalLayout = layout;
    finalizeStats(blocks, clock, result);
    return result;
}

} // namespace tetris
