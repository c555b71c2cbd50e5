/**
 * @file
 * Semantic equivalence verification of compiled circuits.
 *
 * Every pipeline in the registry promises the same contract: its
 * CompileResult implements the ordered product of exp(-i w theta/2 P)
 * rotations of the scheduled blocks, followed by the finalLayout wire
 * permutation, up to global phase, with free wires treated as |0>
 * ancillas that return to |0>. Nothing downstream (the engine, the
 * artifact store, the bench sweeps) re-checks that contract; this
 * subsystem is the backstop that does.
 *
 * Two checkers share one report type:
 *
 *  - verifyConjugation(): the production checker, polynomial in
 *    circuit size and width, so one checker covers every device from
 *    a 4-wire line to the 64/65-qubit ones. Walks the circuit once,
 *    maintaining the Clifford back-conjugation frame
 *    (verify/pauli_frame.hh); each RZ/RX is pulled back to an
 *    input-frame rotation axis, and the resulting (axis, angle)
 *    sequence is matched blockwise against the scheduled blocks
 *    (per-axis angle sums, mod 2pi, within each commuting block).
 *    The residual Clifford must be exactly the finalLayout
 *    permutation on logical wires and Z-type on the |0> ancillas.
 *
 *  - verifyExact(): the test oracle that cross-checks it. Simulates
 *    the compiled circuit and the analytic reference on random input
 *    states (sim/statevector) and compares up to global phase.
 *    Exponential in width, and blind to small angle errors (an error
 *    of delta moves the overlap by O(delta^2)); only tests call it.
 *
 * Both report cancelled results, circuits with MEASURE/RESET (QAOA
 * qubit reuse) and evicted logical qubits as Skipped -- their
 * semantics are not the unitary contract above. The engine runs
 * verifyConjugation() on every fresh compilation *and* every
 * disk-cache hit when EngineOptions::verify is set, recording
 * verify.pass / verify.fail / verify.skipped metrics (see the README
 * "Verification" section).
 */

#ifndef TETRIS_VERIFY_VERIFY_HH
#define TETRIS_VERIFY_VERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "pauli/pauli_block.hh"

namespace tetris
{

/** Outcome class of one verification. */
enum class VerifyStatus
{
    /** The circuit provably implements the reference program. */
    Pass,
    /** A semantic divergence was found (miscompile or stale artifact). */
    Fail,
    /** The checker does not apply (width, reuse semantics, ...). */
    Skipped,
};

/** Human-readable name of a status. */
const char *verifyStatusName(VerifyStatus s);

/**
 * A stored verdict: whether the verify pass ran on a result and, if
 * it did, its status. One byte, as a compile-cache entry holds it and
 * a TSP1 Result frame carries it (serve::WireVerify); the values are
 * part of the wire protocol.
 */
enum class VerifyVerdict : uint8_t
{
    NotRun = 0,
    Pass = 1,
    Fail = 2,
    Skipped = 3,
};

/** The verdict of a verify pass that ran and reported `s`. */
constexpr VerifyVerdict
verdictOf(VerifyStatus s)
{
    switch (s) {
      case VerifyStatus::Pass: return VerifyVerdict::Pass;
      case VerifyStatus::Fail: return VerifyVerdict::Fail;
      case VerifyStatus::Skipped: break;
    }
    return VerifyVerdict::Skipped;
}

/** Knobs of the exact checker. */
struct VerifyOptions
{
    /** Random input states per exact check. */
    int numStates = 2;
    /** Seed for the exact checker's random input states. */
    uint64_t seed = 0x7e72150001ull;
    /** Allowed |overlap - 1| deviation. */
    double tolerance = 1e-7;
};

/** Result of one verification run. */
struct VerifyReport
{
    VerifyStatus status = VerifyStatus::Skipped;
    /** Which checker produced the verdict: "exact"|"conjugation". */
    std::string method;
    /** Diagnostic for Fail (what diverged) and Skipped (why). */
    std::string detail;

    bool pass() const { return status == VerifyStatus::Pass; }
    bool failed() const { return status == VerifyStatus::Fail; }
};

/**
 * Statevector check: simulate compiled circuit and reference program
 * on numStates random inputs (ancillas |0>), undo the finalLayout
 * permutation, require overlap 1 up to `tolerance`. Skipped when the
 * register exceeds 18 wires or the circuit leaves the unitary gate
 * set (MEASURE/RESET). The test oracle; production code runs
 * verifyConjugation().
 */
VerifyReport verifyExact(const std::vector<PauliBlock> &blocks,
                         const CompileResult &result,
                         const VerifyOptions &opts = VerifyOptions());

/**
 * Clifford/Pauli-conjugation check, polynomial in circuit size and
 * width. Blocks whose strings mutually commute are matched by
 * per-axis angle sums (order free); blocks with non-commuting
 * strings are matched as an ordered rotation sequence where only
 * commutation-preserving reorderings are accepted, so arbitrary
 * client-submitted programs verify rather than skip. The production
 * entry point (engine, compile_cli --verify).
 */
VerifyReport verifyConjugation(const std::vector<PauliBlock> &blocks,
                               const CompileResult &result);

} // namespace tetris

#endif // TETRIS_VERIFY_VERIFY_HH
