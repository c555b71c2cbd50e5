/**
 * @file
 * Linear combinations of Pauli strings with complex coefficients.
 *
 * PauliSum is the symbolic algebra engine behind the fermion-to-qubit
 * encoders: ladder operators are expressed as sums of Pauli strings
 * and excitation operators are obtained by multiplying and adding
 * those sums.
 */

#ifndef TETRIS_PAULI_PAULI_SUM_HH
#define TETRIS_PAULI_PAULI_SUM_HH

#include <complex>
#include <vector>

#include "pauli/pauli_string.hh"

namespace tetris
{

/** One weighted Pauli string inside a PauliSum. */
struct PauliTerm
{
    std::complex<double> coeff;
    PauliString string;
};

/**
 * A sum of weighted Pauli strings over a fixed qubit count, closed
 * under addition, scaling and multiplication.
 */
class PauliSum
{
  public:
    /** The zero operator on n qubits. */
    explicit PauliSum(size_t num_qubits) : numQubits_(num_qubits) {}

    /** A single-term operator. */
    PauliSum(std::complex<double> coeff, PauliString s);

    size_t numQubits() const { return numQubits_; }
    const std::vector<PauliTerm> &terms() const { return terms_; }
    bool empty() const { return terms_.empty(); }
    size_t size() const { return terms_.size(); }

    /** Append a term without simplification. */
    void addTerm(std::complex<double> coeff, PauliString s);

    PauliSum operator+(const PauliSum &o) const;
    PauliSum operator-(const PauliSum &o) const;
    PauliSum operator*(const PauliSum &o) const;
    PauliSum operator*(std::complex<double> scale) const;

    PauliSum &operator+=(const PauliSum &o);

    /**
     * Merge identical strings, drop terms with |coeff| below eps, and
     * sort terms lexicographically for deterministic output.
     */
    PauliSum simplified(double eps = 1e-12) const;

    /** A - A^dagger is anti-Hermitian: all coefficients imaginary. */
    bool isAntiHermitian(double eps = 1e-12) const;

    /** Hermitian check: all coefficients real after simplification. */
    bool isHermitian(double eps = 1e-12) const;

    /** Hermitian conjugate (conjugate coefficients; strings are self-adj). */
    PauliSum adjoint() const;

  private:
    size_t numQubits_;
    std::vector<PauliTerm> terms_;
};

} // namespace tetris

#endif // TETRIS_PAULI_PAULI_SUM_HH
