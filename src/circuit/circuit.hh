/**
 * @file
 * Circuit container plus the metric definitions used by the paper.
 *
 * Metric conventions (Sec. VI-A of the paper), all read by
 * Circuit::metrics():
 *  - CNOT count: every CX plus 3 per SWAP.
 *  - Depth: critical path length where a SWAP contributes 3 layers.
 *  - Duration: critical path weighted by per-gate dt durations.
 *  - 1Q count: all single-qubit gates.
 */

#ifndef TETRIS_CIRCUIT_CIRCUIT_HH
#define TETRIS_CIRCUIT_CIRCUIT_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/gate.hh"
#include "pauli/pauli_op.hh"

namespace tetris
{

/**
 * Per-gate durations in units of dt. Defaults are calibrated to
 * IBM-scale timings (CNOT ~300ns at dt = 0.222ns); see DESIGN.md.
 */
struct DurationModel
{
    double oneQubitDt = 160.0;
    double cnotDt = 1350.0;
    double measureDt = 5000.0;
    double resetDt = 3000.0;

    /** Duration of one gate under this model. */
    double
    of(const Gate &g) const
    {
        switch (g.kind) {
          case GateKind::CX: return cnotDt;
          case GateKind::SWAP: return 3.0 * cnotDt;
          case GateKind::MEASURE: return measureDt;
          case GateKind::RESET: return resetDt;
          default: return oneQubitDt;
        }
    }
};

/** The paper's metrics of one circuit (conventions above). */
struct CircuitMetrics
{
    size_t cnotCount = 0;     ///< CX gates plus three per SWAP.
    size_t swapCount = 0;     ///< SWAP gates (undecomposed).
    size_t oneQubitCount = 0; ///< Single-qubit gates.
    size_t depth = 0;         ///< Critical path; SWAP = 3 layers.
    double durationDt = 0.0;  ///< Critical path under DurationModel().

    bool operator==(const CircuitMetrics &) const = default;
};

/**
 * An ordered list of gates over a fixed qubit register. Gate order is
 * program order; scheduling metrics (depth, duration) use ASAP
 * placement respecting qubit dependencies.
 */
class Circuit
{
  public:
    Circuit() = default;
    explicit Circuit(int num_qubits) : numQubits_(num_qubits) {}

    /**
     * Adopt a gate vector without copying it. Every gate must already
     * satisfy add()'s checks, as the gates of another circuit on the
     * same register do.
     */
    Circuit(int num_qubits, std::vector<Gate> gates)
        : numQubits_(num_qubits), gates_(std::move(gates))
    {
    }

    int numQubits() const { return numQubits_; }
    const std::vector<Gate> &gates() const { return gates_; }

    /** Hand the gate vector over; the circuit is left empty. */
    std::vector<Gate> takeGates() && { return std::exchange(gates_, {}); }
    size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    /** Append one gate (qubits must be in range). */
    void add(const Gate &g);

    /** Convenience emitters. */
    void h(int q) { add(Gate::h(q)); }
    void x(int q) { add(Gate::x(q)); }
    void s(int q) { add(Gate::s(q)); }
    void sdg(int q) { add(Gate::sdg(q)); }
    void rz(int q, double a) { add(Gate::rz(q, a)); }
    void rx(int q, double a) { add(Gate::rx(q, a)); }
    void cx(int c, int t) { add(Gate::cx(c, t)); }
    void swap(int a, int b) { add(Gate::swap(a, b)); }
    void measure(int q) { add(Gate::measure(q)); }
    void reset(int q) { add(Gate::reset(q)); }

    /**
     * Rotate wire q so a Z-basis parity sees Pauli `op`: H for X,
     * Sdg then H for Y, nothing for I or Z. basisExit() undoes it.
     */
    void basisEnter(int q, PauliOp op);
    void basisExit(int q, PauliOp op);

    /** Append all gates of another circuit (same register width). */
    void append(const Circuit &other);

    /** Every metric of the circuit, from one walk over its gates. */
    CircuitMetrics metrics() const;

    /**
     * The inverse circuit (reversed gate order, inverted gates).
     * Measure/reset gates are not invertible; calling this on a
     * circuit containing them is an error.
     */
    Circuit inverse() const;

    /** Decompose every SWAP into 3 CNOTs (for simulators/routers). */
    Circuit withSwapsDecomposed() const;

  private:
    int numQubits_ = 0;
    std::vector<Gate> gates_;
};

} // namespace tetris

#endif // TETRIS_CIRCUIT_CIRCUIT_HH
