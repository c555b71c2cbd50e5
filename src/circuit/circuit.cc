#include "circuit/circuit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tetris
{

void
Circuit::add(const Gate &g)
{
    TETRIS_ASSERT(g.q0 >= 0 && g.q0 < numQubits_, "qubit out of range");
    if (g.isTwoQubit()) {
        TETRIS_ASSERT(g.q1 >= 0 && g.q1 < numQubits_, "qubit out of range");
        TETRIS_ASSERT(g.q0 != g.q1, "two-qubit gate on one wire");
    }
    gates_.push_back(g);
}

void
Circuit::basisEnter(int q, PauliOp op)
{
    if (op == PauliOp::Y)
        sdg(q);
    if (op == PauliOp::X || op == PauliOp::Y)
        h(q);
}

void
Circuit::basisExit(int q, PauliOp op)
{
    if (op == PauliOp::X || op == PauliOp::Y)
        h(q);
    if (op == PauliOp::Y)
        s(q);
}

void
Circuit::append(const Circuit &other)
{
    TETRIS_ASSERT(other.numQubits_ <= numQubits_,
                  "appended circuit is wider than the register");
    gates_.insert(gates_.end(), other.gates_.begin(), other.gates_.end());
}

CircuitMetrics
Circuit::metrics() const
{
    const DurationModel model;
    CircuitMetrics m;
    // Per wire: the layer and the time at which its last gate ends.
    std::vector<size_t> level(numQubits_, 0);
    std::vector<double> time(numQubits_, 0.0);
    for (const auto &g : gates_) {
        if (g.kind == GateKind::CX) {
            m.cnotCount += 1;
        } else if (g.kind == GateKind::SWAP) {
            m.cnotCount += 3;
            ++m.swapCount;
        } else if (g.isOneQubit()) {
            ++m.oneQubitCount;
        }
        size_t start = level[g.q0];
        double start_time = time[g.q0];
        if (g.isTwoQubit()) {
            start = std::max(start, level[g.q1]);
            start_time = std::max(start_time, time[g.q1]);
        }
        const size_t end = start + (g.kind == GateKind::SWAP ? 3 : 1);
        const double end_time = start_time + model.of(g);
        level[g.q0] = end;
        time[g.q0] = end_time;
        if (g.isTwoQubit()) {
            level[g.q1] = end;
            time[g.q1] = end_time;
        }
        m.depth = std::max(m.depth, end);
        m.durationDt = std::max(m.durationDt, end_time);
    }
    return m;
}

Circuit
Circuit::inverse() const
{
    Circuit inv(numQubits_);
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
        Gate g = *it;
        switch (g.kind) {
          case GateKind::S:
            g.kind = GateKind::Sdg;
            break;
          case GateKind::Sdg:
            g.kind = GateKind::S;
            break;
          case GateKind::RZ:
          case GateKind::RX:
            g.angle = -g.angle;
            break;
          case GateKind::MEASURE:
          case GateKind::RESET:
            panic("cannot invert a circuit containing measure/reset");
          default:
            break;
        }
        inv.gates_.push_back(g);
    }
    return inv;
}

Circuit
Circuit::withSwapsDecomposed() const
{
    Circuit out(numQubits_);
    for (const auto &g : gates_) {
        if (g.kind == GateKind::SWAP) {
            out.cx(g.q0, g.q1);
            out.cx(g.q1, g.q0);
            out.cx(g.q0, g.q1);
        } else {
            out.add(g);
        }
    }
    return out;
}

} // namespace tetris
