#include "pauli/pauli_string.hh"

#include <bit>

#include "common/hash.hh"
#include "common/logging.hh"

namespace tetris
{

PauliString
PauliString::fromText(const std::string &text)
{
    PauliString s(text.size());
    for (size_t q = 0; q < text.size(); ++q)
        s.setOp(q, pauliFromChar(text[q]));
    return s;
}

TETRIS_POPCNT_KERNEL size_t
PauliString::weight() const
{
    size_t w = 0;
    for (size_t i = 0; i < x_.size(); ++i)
        w += static_cast<size_t>(std::popcount(x_[i] | z_[i]));
    return w;
}

bool
PauliString::isIdentity() const
{
    for (size_t i = 0; i < x_.size(); ++i) {
        if ((x_[i] | z_[i]) != 0)
            return false;
    }
    return true;
}

std::vector<size_t>
PauliString::support() const
{
    std::vector<size_t> s;
    for (size_t i = 0; i < x_.size(); ++i) {
        uint64_t w = x_[i] | z_[i];
        while (w != 0) {
            s.push_back(i * 64 +
                        static_cast<size_t>(std::countr_zero(w)));
            w &= w - 1;
        }
    }
    return s;
}

bool
PauliString::commutesWith(const PauliString &other) const
{
    TETRIS_ASSERT(numQubits() == other.numQubits());
    // Strings commute iff the symplectic inner product — the number
    // of qubits where exactly one side's X hits the other's Z — is
    // even. XOR-accumulating the per-word indicator planes preserves
    // the popcount parity, so one final popcount decides.
    uint64_t acc = 0;
    for (size_t i = 0; i < x_.size(); ++i)
        acc ^= (x_[i] & other.z_[i]) ^ (z_[i] & other.x_[i]);
    return (std::popcount(acc) & 1) == 0;
}

TETRIS_POPCNT_KERNEL uint8_t
PauliString::mulLeft(const PauliString &other)
{
    TETRIS_ASSERT(numQubits() == other.numQubits(),
                  "string length mismatch");
    // With P(x,z) = i^{xz} X^x Z^z (so Y = iXZ), the per-qubit phase
    // of a*b is i^{x_a z_a + x_b z_b + 2 z_a x_b - x_c z_c} where
    // (x_c, z_c) = (x_a^x_b, z_a^z_b). Summed word-wise with four
    // popcounts; -1 is folded in as +3 mod 4.
    uint64_t phase = 0;
    for (size_t i = 0; i < x_.size(); ++i) {
        const uint64_t xa = other.x_[i], za = other.z_[i];
        const uint64_t xb = x_[i], zb = z_[i];
        const uint64_t xc = xa ^ xb, zc = za ^ zb;
        phase += static_cast<uint64_t>(std::popcount(xa & za)) +
                 static_cast<uint64_t>(std::popcount(xb & zb)) +
                 2u * static_cast<uint64_t>(std::popcount(za & xb)) +
                 3u * static_cast<uint64_t>(std::popcount(xc & zc));
        x_[i] = xc;
        z_[i] = zc;
    }
    return static_cast<uint8_t>(phase % 4);
}

TETRIS_POPCNT_KERNEL uint8_t
PauliString::mulRight(const PauliString &other)
{
    TETRIS_ASSERT(numQubits() == other.numQubits(),
                  "string length mismatch");
    // Same phase bookkeeping as mulLeft with the operand roles
    // swapped: here a = *this, b = other.
    uint64_t phase = 0;
    for (size_t i = 0; i < x_.size(); ++i) {
        const uint64_t xa = x_[i], za = z_[i];
        const uint64_t xb = other.x_[i], zb = other.z_[i];
        const uint64_t xc = xa ^ xb, zc = za ^ zb;
        phase += static_cast<uint64_t>(std::popcount(xa & za)) +
                 static_cast<uint64_t>(std::popcount(xb & zb)) +
                 2u * static_cast<uint64_t>(std::popcount(za & xb)) +
                 3u * static_cast<uint64_t>(std::popcount(xc & zc));
        x_[i] = xc;
        z_[i] = zc;
    }
    return static_cast<uint8_t>(phase % 4);
}

std::string
PauliString::toText() const
{
    std::string s;
    s.reserve(n_);
    for (size_t q = 0; q < n_; ++q)
        s.push_back(pauliChar(op(q)));
    return s;
}

bool
PauliString::operator<(const PauliString &o) const
{
    // Byte-identical semantics to comparing the per-qubit operator
    // vectors: find the first differing qubit via the XOR of the
    // planes, compare there; equal prefixes order by length.
    const size_t common_words = std::min(x_.size(), o.x_.size());
    const size_t common_qubits = std::min(n_, o.n_);
    for (size_t w = 0; w < common_words; ++w) {
        const uint64_t diff = (x_[w] ^ o.x_[w]) | (z_[w] ^ o.z_[w]);
        if (diff != 0) {
            const size_t q =
                w * 64 + static_cast<size_t>(std::countr_zero(diff));
            if (q >= common_qubits)
                break; // shared prefix equal; length decides
            return op(q) < o.op(q);
        }
    }
    return n_ < o.n_;
}

size_t
PauliStringHash::operator()(const PauliString &s) const
{
    // FNV-style multiply-mix over whole 64-qubit words (not bytes):
    // one multiply per plane word, with a final avalanche so sparse
    // strings still spread across the low bits map buckets use.
    uint64_t h = kFnvOffset ^ (s.numQubits() * kFnvPrime);
    for (size_t i = 0; i < s.numWords(); ++i) {
        h = (h ^ s.xWords()[i]) * kFnvPrime;
        h = (h ^ s.zWords()[i]) * kFnvPrime;
    }
    h ^= h >> 33;
    return static_cast<size_t>(h);
}

PauliStringProduct
mulStrings(const PauliString &a, const PauliString &b)
{
    PauliStringProduct out{b, 0};
    out.phaseExp = out.string.mulLeft(a);
    return out;
}

} // namespace tetris
