/**
 * @file
 * Shared helpers for the test suite. The simulator-based equivalence
 * check delegates to the library's own verifier (verify/verify.hh) so
 * every existing compiler test doubles as coverage of the exact
 * checker; the state-manipulation helpers stay here for tests that
 * build reference states by hand (e.g. the router tests).
 */

#ifndef TETRIS_TESTS_TEST_UTIL_HH
#define TETRIS_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "hardware/coupling_graph.hh"
#include "pauli/pauli_block.hh"
#include "serialize/artifact.hh"
#include "sim/statevector.hh"
#include "verify/internal.hh"
#include "verify/verify.hh"

namespace tetris::test
{

/** Pad a logical string with identities up to num_qubits wires. */
inline PauliString
extendString(const PauliString &s, int num_qubits)
{
    PauliString out(static_cast<size_t>(num_qubits));
    for (size_t q = 0; q < s.numQubits(); ++q)
        out.setOp(q, s.op(q));
    return out;
}

/** |psi_logical> tensor |0...0> on a wider register. */
inline Statevector
embedState(const Statevector &logical, int num_qubits)
{
    std::vector<Statevector::Amplitude> amp(size_t{1} << num_qubits,
                                            0.0);
    for (size_t i = 0; i < logical.amplitudes().size(); ++i)
        amp[i] = logical.amplitudes()[i];
    return Statevector::fromAmplitudes(std::move(amp));
}

/**
 * Permute wire positions: bit l of the input index moves to position
 * new_pos[l]. new_pos must be a permutation of [0, n).
 */
inline Statevector
permuteState(const Statevector &sv, const std::vector<int> &new_pos)
{
    std::vector<Statevector::Amplitude> amp(sv.amplitudes().size(), 0.0);
    for (size_t i = 0; i < sv.amplitudes().size(); ++i) {
        size_t j = 0;
        for (int b = 0; b < sv.numQubits(); ++b) {
            if (i & (size_t{1} << b))
                j |= size_t{1} << new_pos[b];
        }
        amp[j] = sv.amplitudes()[i];
    }
    return Statevector::fromAmplitudes(std::move(amp));
}

/**
 * The tests' one definition of "the same compiled output": the two
 * results encode byte-identical .tca images (serialize/artifact.hh).
 * An image holds every gate with its angle bits, both layouts, the
 * block order and every stats count, and no timing.
 */
inline ::testing::AssertionResult
sameImage(const CompileResult &a, const CompileResult &b)
{
    const std::string x = serialize::encodeArtifact(0, a);
    const std::string y = serialize::encodeArtifact(0, b);
    if (x == y)
        return ::testing::AssertionSuccess();
    const auto at = std::mismatch(x.begin(), x.end(), y.begin(), y.end());
    return ::testing::AssertionFailure()
           << "images of " << x.size() << " and " << y.size()
           << " bytes differ from byte " << (at.first - x.begin());
}

/** Every two-qubit gate must act on a coupling-graph edge. */
inline bool
isHardwareCompliant(const Circuit &c, const CouplingGraph &hw)
{
    for (const auto &g : c.gates()) {
        if (g.isTwoQubit() && !hw.connected(g.q0, g.q1))
            return false;
    }
    return true;
}

/**
 * Check that a compiled result implements the scheduled product of
 * exp(-i w theta/2 P) rotations followed by the final-layout wire
 * permutation, up to global phase, on a random input state with
 * ancillas in |0>. Thin wrapper over verifyExact(); a register wider
 * than `num_phys` wires fails the check.
 */
inline bool
checkCompiledEquivalence(const std::vector<PauliBlock> &blocks,
                         const CompileResult &result, int num_phys,
                         Rng &rng, double tol = 1e-7)
{
    if (verify_detail::registerWidth(blocks, result) >
        std::max(num_phys, 1))
        return false;
    VerifyOptions opts;
    opts.seed = rng.engine()();
    opts.tolerance = tol;
    opts.numStates = 1; // one state per call, as the old helper did
    return verifyExact(blocks, result, opts).pass();
}

} // namespace tetris::test

#endif // TETRIS_TESTS_TEST_UTIL_HH
