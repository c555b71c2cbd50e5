/**
 * @file
 * Byte-per-qubit reference Pauli kernels.
 *
 * These are the seed-era scalar loops the packed bit-plane kernels
 * in PauliString replaced: one PauliOp byte per qubit, one branchy
 * iteration per qubit. They exist for two reasons and must stay
 * dumb:
 *
 *  - the randomized differential suite in tests/test_pauli.cc
 *    asserts the packed kernels agree with them bit-for-bit
 *    (operator content, commutation verdict, product phase);
 *  - bench/perf_microbench.cc times them against the packed
 *    kernels, which is where the repacking's speedup claim is
 *    measured rather than asserted.
 */

#ifndef TETRIS_PAULI_PAULI_REF_HH
#define TETRIS_PAULI_PAULI_REF_HH

#include <cstdint>
#include <vector>

#include "pauli/pauli_op.hh"

namespace tetris::pauli_ref
{

/** One byte per qubit, index 0 = qubit 0. */
using ByteString = std::vector<PauliOp>;

/** Reference commutation check: count anticommuting qubits. */
bool commutes(const ByteString &a, const ByteString &b);

/** Reference weight: count non-identity bytes. */
size_t weight(const ByteString &s);

struct Product
{
    ByteString ops;
    uint8_t phaseExp;
};

/** Reference string product with per-qubit phase accumulation. */
Product mul(const ByteString &a, const ByteString &b);

/**
 * Allocation-free reference product: acc = a * acc, returning the
 * power-of-i phase exponent — the byte-wise mirror of
 * PauliString::mulLeft, so the kernel benchmarks compare loop
 * against loop rather than allocator against allocator.
 */
uint8_t mulInto(const ByteString &a, ByteString &acc);

/**
 * Reference stabilizer back-conjugation state: the signed X/Z
 * generator images a PauliFrame keeps, stored byte-wise. Only the
 * gate kinds the benchmarked conjugation loop uses are supported.
 */
struct ByteFrame
{
    explicit ByteFrame(int num_qubits);

    void applyH(int q);
    void applyS(int q);
    void applyCx(int c, int t);

    std::vector<ByteString> x, z;
    std::vector<int> xSign, zSign;
};

} // namespace tetris::pauli_ref

#endif // TETRIS_PAULI_PAULI_REF_HH
