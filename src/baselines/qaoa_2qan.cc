#include "baselines/qaoa_2qan.hh"

#include <limits>

#include "circuit/peephole.hh"
#include "common/logging.hh"

namespace tetris
{

namespace
{

struct PendingGate
{
    int u;
    int v; // -1 for single-qubit Z rotations
    double angle;
};

} // namespace

CompileResult
compile2qanProxy(const std::vector<PauliBlock> &blocks,
                 const CouplingGraph &hw)
{
    StageClock clock;
    CompileResult result;
    CompileStats &stats = result.stats;

    const int num_logical = blocksNumQubits(blocks);
    TETRIS_ASSERT(num_logical <= hw.numQubits());

    std::vector<PendingGate> pending;
    for (const auto &b : blocks) {
        TETRIS_ASSERT(b.size() == 1, "2QAN expects single-string blocks");
        const PauliString &s = b.string(0);
        auto support = s.support();
        TETRIS_ASSERT(support.size() >= 1 && support.size() <= 2,
                      "2QAN expects 1- or 2-local strings");
        double angle = b.weight(0) * b.theta();
        if (support.size() == 1) {
            pending.push_back({static_cast<int>(support[0]), -1, angle});
        } else {
            pending.push_back({static_cast<int>(support[0]),
                               static_cast<int>(support[1]), angle});
        }
    }

    Layout layout(num_logical, hw.numQubits());
    Circuit circ(hw.numQubits());

    auto gate_distance = [&](const PendingGate &g) {
        if (g.v < 0)
            return 0;
        return hw.distance(layout.physOf(g.u), layout.physOf(g.v));
    };

    auto emit_gate = [&](const PendingGate &g) {
        if (g.v < 0) {
            circ.rz(layout.physOf(g.u), g.angle);
            return;
        }
        int pu = layout.physOf(g.u);
        int pv = layout.physOf(g.v);
        circ.cx(pu, pv);
        circ.rz(pv, g.angle);
        circ.cx(pu, pv);
        stats.synthesis.emittedCx += 2;
    };

    while (!pending.empty()) {
        // Drain commuting gates that are currently adjacent.
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

        // Steepest-descent SWAP over edges incident to pending gate
        // qubits; ties favor progress on the closest gate.
        std::vector<bool> active_pos(hw.numQubits(), false);
        for (const auto &g : pending) {
            active_pos[layout.physOf(g.u)] = true;
            if (g.v >= 0)
                active_pos[layout.physOf(g.v)] = true;
        }

        long best_after = std::numeric_limits<long>::max();
        std::pair<int, int> best_swap{-1, -1};
        for (const auto &[a, b] : hw.edges()) {
            if (!active_pos[a] && !active_pos[b])
                continue;
            long after = 0;
            for (const auto &g : pending) {
                if (g.v < 0)
                    continue;
                int x = layout.physOf(g.u);
                int y = layout.physOf(g.v);
                int xs = x == a ? b : (x == b ? a : x);
                int ys = y == a ? b : (y == b ? a : y);
                after += hw.distance(xs, ys);
            }
            if (after < best_after) {
                best_after = after;
                best_swap = {a, b};
            }
        }
        TETRIS_ASSERT(best_swap.first >= 0);

        long current_total = 0;
        for (const auto &g : pending)
            current_total += gate_distance(g);
        if (best_after >= current_total) {
            // Steepest descent stalled; route the closest gate fully
            // so the next drain phase makes progress.
            size_t front = 0;
            for (size_t i = 1; i < pending.size(); ++i) {
                if (gate_distance(pending[i]) <
                    gate_distance(pending[front])) {
                    front = i;
                }
            }
            std::vector<int> path =
                hw.shortestPath(layout.physOf(pending[front].u),
                                layout.physOf(pending[front].v));
            for (size_t k = 1; k + 1 < path.size(); ++k) {
                circ.swap(path[k - 1], path[k]);
                layout.applySwap(path[k - 1], path[k]);
                ++stats.synthesis.insertedSwaps;
            }
            continue;
        }

        // SWAP absorption: if the swapped pair also carries a
        // pending ZZ gate, merge SWAP + ZZ into 3 CNOTs.
        int lu = layout.logicalAt(best_swap.first);
        int lv = layout.logicalAt(best_swap.second);
        size_t absorb = pending.size();
        for (size_t i = 0; i < pending.size(); ++i) {
            const auto &g = pending[i];
            if (g.v < 0)
                continue;
            if ((g.u == lu && g.v == lv) || (g.u == lv && g.v == lu)) {
                absorb = i;
                break;
            }
        }
        if (absorb < pending.size()) {
            int a = best_swap.first, b = best_swap.second;
            circ.cx(a, b);
            circ.rz(b, pending[absorb].angle);
            circ.cx(b, a);
            circ.cx(a, b);
            stats.synthesis.emittedCx += 3;
            pending.erase(pending.begin() + absorb);
        } else {
            circ.swap(best_swap.first, best_swap.second);
            ++stats.synthesis.insertedSwaps;
        }
        layout.applySwap(best_swap.first, best_swap.second);
    }

    clock.lap(stats.synthSeconds);
    circ = peepholeOptimize(std::move(circ));
    clock.lap(stats.peepholeSeconds);

    result.circuit = std::move(circ);
    result.finalLayout = layout;
    finalizeStats(blocks, clock, result);
    return result;
}

} // namespace tetris
