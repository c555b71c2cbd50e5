/**
 * @file
 * Exact statevector equivalence checker (see verify/verify.hh).
 */

#include <cmath>
#include <sstream>

#include "common/rng.hh"
#include "sim/statevector.hh"
#include "verify/internal.hh"
#include "verify/verify.hh"

namespace tetris
{

namespace
{

/** Widest register simulated: 2^18 amplitudes, 4 MiB per state. */
constexpr int kMaxQubits = 18;

/** Pad a logical string with identities up to num_qubits wires. */
PauliString
extendTo(const PauliString &s, int num_qubits)
{
    PauliString out(static_cast<size_t>(num_qubits));
    for (size_t q = 0; q < s.numQubits(); ++q)
        out.setOp(q, s.op(q));
    return out;
}

/** |psi_logical> tensor |0...0> on a wider register. */
Statevector
embed(const Statevector &logical, int num_qubits)
{
    std::vector<Statevector::Amplitude> amp(size_t{1} << num_qubits,
                                            0.0);
    for (size_t i = 0; i < logical.amplitudes().size(); ++i)
        amp[i] = logical.amplitudes()[i];
    return Statevector::fromAmplitudes(std::move(amp));
}

/** Move bit b of the index to position new_pos[b]. */
Statevector
permute(const Statevector &sv, const std::vector<int> &new_pos)
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

} // namespace

VerifyReport
verifyExact(const std::vector<PauliBlock> &blocks,
            const CompileResult &result, const VerifyOptions &opts)
{
    VerifyReport report;
    report.method = "exact";
    if (result.cancelled) {
        report.detail = "cancelled result";
        return report;
    }

    const int num_logical = blocksNumQubits(blocks);
    const int num_phys = verify_detail::registerWidth(blocks, result);
    if (num_phys > kMaxQubits) {
        report.detail = "register of " + std::to_string(num_phys) +
                        " wires is too wide to simulate";
        return report;
    }
    if (!verify_detail::circuitIsUnitary(result.circuit)) {
        report.detail = "circuit contains MEASURE/RESET (qubit reuse)";
        return report;
    }

    std::string why_not;
    auto new_pos = verify_detail::finalPermutation(result, num_logical,
                                                   num_phys, why_not);
    if (!new_pos) {
        report.detail = why_not;
        return report;
    }
    // Seeded compiles (streamed chunks) take their input with logical
    // qubit l already sitting on wire initialLayout(l); the reference
    // side stays on logical wires, so the actual side starts from the
    // initial-layout permutation of the embedded state.
    auto init_pos = verify_detail::layoutPermutation(
        result.initialLayout, num_logical, num_phys, why_not);
    if (!init_pos) {
        report.detail = "initialLayout: " + why_not;
        return report;
    }

    std::vector<size_t> order = result.blockOrder;
    if (order.empty()) {
        order.resize(blocks.size());
        for (size_t i = 0; i < blocks.size(); ++i)
            order[i] = i;
    }
    for (size_t idx : order) {
        if (idx >= blocks.size()) {
            report.status = VerifyStatus::Fail;
            report.detail = "blockOrder references a block out of range";
            return report;
        }
    }

    Rng rng(opts.seed);
    for (int trial = 0; trial < std::max(opts.numStates, 1); ++trial) {
        Statevector logical = Statevector::random(num_logical, rng);
        Statevector start = embed(logical, num_phys);

        Statevector actual = permute(start, *init_pos);
        actual.applyCircuit(result.circuit);

        Statevector expected = start;
        for (size_t idx : order) {
            const PauliBlock &b = blocks[idx];
            for (size_t i = 0; i < b.size(); ++i) {
                expected.applyPauliExp(extendTo(b.string(i), num_phys),
                                       b.weight(i) * b.theta());
            }
        }
        expected = permute(expected, *new_pos);

        double overlap = actual.overlapWith(expected);
        if (std::abs(overlap - 1.0) >= opts.tolerance) {
            std::ostringstream os;
            os << "state overlap " << overlap << " on trial " << trial
               << " (tolerance " << opts.tolerance << ")";
            report.status = VerifyStatus::Fail;
            report.detail = os.str();
            return report;
        }
    }

    report.status = VerifyStatus::Pass;
    return report;
}

} // namespace tetris
