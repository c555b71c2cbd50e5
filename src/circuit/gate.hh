/**
 * @file
 * Quantum gate record used by the circuit IR.
 *
 * The gate set mirrors what the Tetris compilation flow emits:
 * {H, X, S, Sdg, RZ, RX, CX, SWAP, MEASURE, RESET}. SWAP is kept as a
 * logical gate and decomposed into three CNOTs only in the metrics
 * (matching the paper's accounting).
 */

#ifndef TETRIS_CIRCUIT_GATE_HH
#define TETRIS_CIRCUIT_GATE_HH

#include <cstdint>
#include <string>

namespace tetris
{

/** Gate kinds supported by the circuit IR. */
enum class GateKind : uint8_t
{
    H,
    X,
    S,
    Sdg,
    RZ,
    RX,
    CX,
    SWAP,
    MEASURE,
    RESET,
};

/** True for gates acting on a single qubit. */
inline bool
isOneQubit(GateKind k)
{
    switch (k) {
      case GateKind::H:
      case GateKind::X:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::RZ:
      case GateKind::RX:
        return true;
      default:
        return false;
    }
}

/** True for the two-qubit gate kinds. */
inline bool
isTwoQubit(GateKind k)
{
    return k == GateKind::CX || k == GateKind::SWAP;
}

/** True for the rotations, the gate kinds whose angle matters. */
inline bool
takesAngle(GateKind k)
{
    return k == GateKind::RZ || k == GateKind::RX;
}

/** Human-readable gate name. */
const char *gateName(GateKind k);

/**
 * One gate application. q1 is negative for single-qubit gates; for CX,
 * q0 is the control and q1 the target.
 */
struct Gate
{
    GateKind kind;
    int q0;
    int q1;
    double angle;

    static Gate h(int q) { return {GateKind::H, q, -1, 0.0}; }
    static Gate x(int q) { return {GateKind::X, q, -1, 0.0}; }
    static Gate s(int q) { return {GateKind::S, q, -1, 0.0}; }
    static Gate sdg(int q) { return {GateKind::Sdg, q, -1, 0.0}; }
    static Gate rz(int q, double a) { return {GateKind::RZ, q, -1, a}; }
    static Gate rx(int q, double a) { return {GateKind::RX, q, -1, a}; }
    static Gate cx(int c, int t) { return {GateKind::CX, c, t, 0.0}; }
    static Gate swap(int a, int b) { return {GateKind::SWAP, a, b, 0.0}; }
    static Gate measure(int q) { return {GateKind::MEASURE, q, -1, 0.0}; }
    static Gate reset(int q) { return {GateKind::RESET, q, -1, 0.0}; }

    bool isOneQubit() const { return tetris::isOneQubit(kind); }
    bool isTwoQubit() const { return tetris::isTwoQubit(kind); }

    /** True if the gate touches qubit q. */
    bool
    actsOn(int q) const
    {
        return q0 == q || (isTwoQubit() && q1 == q);
    }

    /** Render like "CX 3 5" or "RZ 2 (0.5)". */
    std::string toString() const;
};

} // namespace tetris

#endif // TETRIS_CIRCUIT_GATE_HH
