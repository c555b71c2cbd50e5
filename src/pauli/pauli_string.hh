/**
 * @file
 * Dense Pauli strings (tensor products of single-qubit Paulis).
 *
 * Storage is data-oriented: instead of one byte per qubit, a string
 * keeps two bit-planes of 64-qubit words — the X plane and the Z
 * plane — with qubit q at bit (q mod 64) of word (q / 64):
 *
 *     op      X-bit  Z-bit
 *     I         0      0
 *     X         1      0
 *     Y         1      1        (Y = iXZ)
 *     Z         0      1
 *
 * Every bulk kernel then runs word-at-a-time: commutation is the
 * parity of popcount((x1&z2) ^ (z1&x2)) (the symplectic inner
 * product), weight is popcount(x|z), the string product is a plane
 * XOR plus a popcount-based phase count, and hashing mixes whole
 * words. Bits above numQubits() are kept zero as a class invariant,
 * so word-wise equality, hashing and ordering need no masking. The
 * kernels whose loops are popcounts carry TETRIS_POPCNT_KERNEL.
 */

#ifndef TETRIS_PAULI_PAULI_STRING_HH
#define TETRIS_PAULI_PAULI_STRING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pauli/pauli_op.hh"

/*
 * TETRIS_POPCNT_KERNEL goes on the definition of a function whose
 * inner loop is std::popcount. Built for baseline x86-64 (no -mpopcnt
 * or -march), each popcount GCC emits is a call into libgcc's
 * __popcountdi2. With the mark GCC builds the function twice, for the
 * popcnt instruction and for the baseline, and the loader binds the
 * function's symbol to the clone the CPU supports (an ifunc): no -m
 * flag is needed, and the binary still runs on a CPU without popcnt.
 * Only the definition carries it: on a declaration, every translation
 * unit that calls the function emits a resolver of its own, which
 * fails to link against the defining unit's local clones. The mark is
 * empty with other compilers, off x86-64 Linux, in a build that
 * already has popcnt, and under ThreadSanitizer: an ifunc resolver
 * runs before the TSan runtime is set up, and with GCC 12 an
 * instrumented binary holding one faults before main.
 */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__POPCNT__) && \
    !defined(__SANITIZE_THREAD__)
#define TETRIS_POPCNT_KERNEL \
    __attribute__((target_clones("popcnt", "default")))
#else
#define TETRIS_POPCNT_KERNEL
#endif

namespace tetris
{

/** X/Z bit pair of one Pauli operator (see the packing table). */
inline uint64_t
pauliXBit(PauliOp p)
{
    auto v = static_cast<uint64_t>(p);
    return (v ^ (v >> 1)) & 1u;
}

inline uint64_t
pauliZBit(PauliOp p)
{
    return (static_cast<uint64_t>(p) >> 1) & 1u;
}

/** Decode an (x, z) bit pair back to the operator. */
inline PauliOp
pauliFromBits(uint64_t x, uint64_t z)
{
    static constexpr PauliOp kDecode[4] = {PauliOp::I, PauliOp::X,
                                           PauliOp::Z, PauliOp::Y};
    return kDecode[(x & 1u) | ((z & 1u) << 1)];
}

/**
 * A Pauli string over a fixed number of qubits, e.g. "XXYZI".
 *
 * Index 0 of the string corresponds to qubit 0. Strings are value
 * types and hashable so they can key maps during term merging.
 */
class PauliString
{
  public:
    PauliString() = default;

    /** An all-identity string on n qubits. */
    explicit PauliString(size_t n)
        : n_(n), x_(wordsFor(n), 0), z_(wordsFor(n), 0)
    {
    }

    /** Construct from explicit operators. */
    explicit PauliString(const std::vector<PauliOp> &ops)
        : PauliString(ops.size())
    {
        for (size_t q = 0; q < ops.size(); ++q)
            setOp(q, ops[q]);
    }

    /** Parse from text such as "XXYZI" (case-insensitive). */
    static PauliString fromText(const std::string &text);

    /** Number of qubits the string is defined over. */
    size_t numQubits() const { return n_; }

    /** Operator on one qubit. */
    PauliOp op(size_t q) const
    {
        return pauliFromBits(x_[q >> 6] >> (q & 63),
                             z_[q >> 6] >> (q & 63));
    }

    /** Set the operator on one qubit. */
    void setOp(size_t q, PauliOp p)
    {
        const uint64_t bit = uint64_t{1} << (q & 63);
        x_[q >> 6] = (x_[q >> 6] & ~bit) | (bit * pauliXBit(p));
        z_[q >> 6] = (z_[q >> 6] & ~bit) | (bit * pauliZBit(p));
    }

    /** Number of non-identity operators (the paper's active length). */
    size_t weight() const;

    /** Qubits carrying a non-identity operator, ascending. */
    std::vector<size_t> support() const;

    /** True if no qubit carries a non-identity operator. */
    bool isIdentity() const;

    /** True if this string commutes with the other (global phase). */
    bool commutesWith(const PauliString &other) const;

    /**
     * In-place left product: *this = other * *this, returning the
     * accumulated power-of-i phase exponent. The allocation-free
     * kernel behind mulStrings and the verifier's tableau updates.
     */
    uint8_t mulLeft(const PauliString &other);

    /** In-place right product: *this = *this * other. */
    uint8_t mulRight(const PauliString &other);

    /** Render as text, e.g. "XXYZI". */
    std::string toText() const;

    bool operator==(const PauliString &o) const
    {
        return n_ == o.n_ && x_ == o.x_ && z_ == o.z_;
    }
    bool operator!=(const PauliString &o) const { return !(*this == o); }

    /**
     * Lexicographic order over per-qubit operator values, exactly as
     * the byte-per-qubit representation compared (deterministic
     * canonicalization must survive the repacking).
     */
    bool operator<(const PauliString &o) const;

    /** Number of 64-qubit words in each plane. */
    size_t numWords() const { return x_.size(); }

    /** Raw planes for word-wide kernels; bits >= numQubits() are 0. */
    const uint64_t *xWords() const { return x_.data(); }
    const uint64_t *zWords() const { return z_.data(); }

  private:
    static size_t wordsFor(size_t n) { return (n + 63) / 64; }

    size_t n_ = 0;
    std::vector<uint64_t> x_;
    std::vector<uint64_t> z_;
};

/** FNV-style hash over the bit-planes (content-stable). */
struct PauliStringHash
{
    size_t operator()(const PauliString &s) const;
};

/**
 * Multiply two equal-length strings; result operator vector plus the
 * accumulated power-of-i phase.
 */
struct PauliStringProduct
{
    PauliString string;
    uint8_t phaseExp;
};

PauliStringProduct mulStrings(const PauliString &a, const PauliString &b);

} // namespace tetris

#endif // TETRIS_PAULI_PAULI_STRING_HH
