#include "pauli/pauli_sum.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"

namespace tetris
{

namespace
{

/** i^k as a complex double. */
std::complex<double>
iPower(uint8_t k)
{
    switch (k % 4) {
      case 0: return {1.0, 0.0};
      case 1: return {0.0, 1.0};
      case 2: return {-1.0, 0.0};
      default: return {0.0, -1.0};
    }
}

} // namespace

PauliSum::PauliSum(std::complex<double> coeff, PauliString s)
    : numQubits_(s.numQubits())
{
    terms_.push_back({coeff, std::move(s)});
}

void
PauliSum::addTerm(std::complex<double> coeff, PauliString s)
{
    TETRIS_ASSERT(s.numQubits() == numQubits_);
    terms_.push_back({coeff, std::move(s)});
}

PauliSum
PauliSum::operator+(const PauliSum &o) const
{
    TETRIS_ASSERT(numQubits_ == o.numQubits_);
    PauliSum r = *this;
    r.terms_.insert(r.terms_.end(), o.terms_.begin(), o.terms_.end());
    return r;
}

PauliSum &
PauliSum::operator+=(const PauliSum &o)
{
    TETRIS_ASSERT(numQubits_ == o.numQubits_);
    terms_.insert(terms_.end(), o.terms_.begin(), o.terms_.end());
    return *this;
}

PauliSum
PauliSum::operator-(const PauliSum &o) const
{
    return *this + o * std::complex<double>(-1.0, 0.0);
}

PauliSum
PauliSum::operator*(const PauliSum &o) const
{
    TETRIS_ASSERT(numQubits_ == o.numQubits_);
    PauliSum r(numQubits_);
    r.terms_.reserve(terms_.size() * o.terms_.size());
    for (const auto &a : terms_) {
        for (const auto &b : o.terms_) {
            PauliStringProduct p = mulStrings(a.string, b.string);
            r.terms_.push_back(
                {a.coeff * b.coeff * iPower(p.phaseExp),
                 std::move(p.string)});
        }
    }
    return r;
}

PauliSum
PauliSum::operator*(std::complex<double> scale) const
{
    PauliSum r = *this;
    for (auto &t : r.terms_)
        t.coeff *= scale;
    return r;
}

PauliSum
PauliSum::simplified(double eps) const
{
    std::unordered_map<PauliString, std::complex<double>, PauliStringHash>
        merged;
    for (const auto &t : terms_)
        merged[t.string] += t.coeff;

    PauliSum r(numQubits_);
    for (auto &kv : merged) {
        if (std::abs(kv.second) > eps)
            r.terms_.push_back({kv.second, kv.first});
    }
    std::sort(r.terms_.begin(), r.terms_.end(),
              [](const PauliTerm &a, const PauliTerm &b) {
                  return a.string < b.string;
              });
    return r;
}

bool
PauliSum::isAntiHermitian(double eps) const
{
    const PauliSum s = simplified(eps);
    for (const auto &t : s.terms()) {
        if (std::abs(t.coeff.real()) > eps)
            return false;
    }
    return true;
}

bool
PauliSum::isHermitian(double eps) const
{
    const PauliSum s = simplified(eps);
    for (const auto &t : s.terms()) {
        if (std::abs(t.coeff.imag()) > eps)
            return false;
    }
    return true;
}

PauliSum
PauliSum::adjoint() const
{
    PauliSum r = *this;
    for (auto &t : r.terms_)
        t.coeff = std::conj(t.coeff);
    return r;
}

} // namespace tetris
