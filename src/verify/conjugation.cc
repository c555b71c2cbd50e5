/**
 * @file
 * Scalable Pauli-conjugation equivalence checker.
 *
 * Writes the compiled circuit as C_total * prod_k exp(-i t_k/2 Q_k)
 * by pushing every Clifford gate to the end (verify/pauli_frame.hh):
 * one O(gates * width) walk yields the input-frame rotation sequence
 * (Q_k, t_k) plus the residual Clifford's tableau. The circuit is
 * correct iff
 *
 *  (1) each Q_k restricted to the ancilla wires is Z-type (Z acts as
 *      +1 on the |0> ancillas, so those factors are inert),
 *  (2) the logical parts of the rotation sequence match the scheduled
 *      blocks. Within one *commuting* block rotation order is free and
 *      same-axis rotations may merge, so per-axis angle *sums* must
 *      agree mod 2pi (mod-2pi slack is a global phase). When every
 *      pair of strings in the whole program commutes (QAOA cost
 *      layers), the pipeline may interleave blocks arbitrarily and
 *      all blocks collapse into a single pool. A block whose strings
 *      do *not* all commute keeps its rotations as an ordered
 *      sequence instead: a compiled rotation may consume an entry
 *      only if every earlier not-yet-satisfied entry commutes with
 *      its axis -- the exact set of reorderings that preserve the
 *      block unitary -- so arbitrary client-submitted programs verify
 *      rather than being skipped. A residual left when a block closes
 *      may carry over to a later same-axis entry (in this block or
 *      any later one) only if it commutes with every live rotation it
 *      crosses -- exactly the moves a commutation-aware peephole can
 *      make.
 *  (3) the residual Clifford acts as the finalLayout permutation on
 *      the logical wires and as a Z-type map on the |0> ancillas.
 *
 * Unlike the exact checker this is polynomial everywhere, so it is
 * the production checker at every width, up to the 64/65-qubit
 * devices of the paper's evaluation.
 */

#include <cmath>
#include <map>
#include <sstream>

#include "verify/internal.hh"
#include "verify/pauli_frame.hh"
#include "verify/verify.hh"

namespace tetris
{

namespace
{

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** Largest per-axis angle residual (mod 2pi) that still matches. */
constexpr double kAngleTolerance = 1e-6;

/** One input-frame rotation, reduced to the logical wires. */
struct LogicalRotation
{
    PauliString axis; // over [0, num_logical)
    double angle;
};

/** One expected rotation slot of a scheduled block. */
struct Entry
{
    PauliString axis;
    double remaining; // expected-minus-consumed angle
};

/** Expected rotations of one scheduled block. */
struct Pool
{
    /**
     * True when the block's strings do not all mutually commute, so
     * the relative order of `seq` entries is load-bearing. Commuting
     * blocks merge same-axis rotations into one slot and are order
     * free.
     */
    bool ordered = false;
    std::vector<Entry> seq;
    /** Axis -> seq slot; maintained for unordered pools only. */
    std::map<PauliString, size_t> index;
};

bool
angleIsIdentity(double angle)
{
    // exp(-i a/2 P) is the identity up to global phase iff a = 0 mod
    // 2pi (a = 2pi gives the -1 phase).
    return std::abs(std::remainder(angle, kTwoPi)) <= kAngleTolerance;
}

std::string
describeAxis(const PauliString &axis)
{
    return axis.toText();
}

/**
 * Find the slot in `pool` a compiled rotation on `axis` may consume,
 * or nullptr. Unordered pools: the unique per-axis slot. Ordered
 * pools: the earliest same-axis entry the rotation can legally reach,
 * i.e. every earlier entry with a live (non-identity) residual must
 * commute with `axis` -- a live non-commuting entry ahead of the
 * match means the compiled circuit reordered rotations that do not
 * commute, which changes the unitary.
 */
Entry *
findSlot(Pool &pool, const PauliString &axis)
{
    if (!pool.ordered) {
        auto it = pool.index.find(axis);
        return it == pool.index.end() ? nullptr : &pool.seq[it->second];
    }
    for (Entry &e : pool.seq) {
        if (e.axis == axis)
            return &e;
        if (!angleIsIdentity(e.remaining) && !e.axis.commutesWith(axis))
            return nullptr; // blocked: order would be violated
    }
    return nullptr;
}

/**
 * Close pool `bi`: every residual must be an identity rotation, or
 * carry over to a later same-axis slot -- first within this pool
 * (ordered pools keep same-axis rotations in separate slots), then
 * into any later pool -- when that is a semantically legal move,
 * i.e. the residual commutes with every live rotation it crosses on
 * the way there.
 */
bool
closePool(std::vector<Pool> &pools, size_t bi, std::string &detail)
{
    Pool &pool = pools[bi];
    for (size_t i = 0; i < pool.seq.size(); ++i) {
        Entry &e = pool.seq[i];
        if (angleIsIdentity(e.remaining))
            continue;
        bool carried = false;
        bool blocked = false;
        // Within-pool carry: only ordered pools can hold a later
        // same-axis slot (unordered pools merged them at build time).
        // Within an unordered pool every pair commutes, so reaching
        // the block boundary is always legal there.
        for (size_t j = i + 1; j < pool.seq.size(); ++j) {
            if (pool.seq[j].axis == e.axis) {
                pool.seq[j].remaining += e.remaining;
                e.remaining = 0.0;
                carried = true;
                break;
            }
            if (pool.ordered &&
                !angleIsIdentity(pool.seq[j].remaining) &&
                !pool.seq[j].axis.commutesWith(e.axis)) {
                blocked = true;
                break;
            }
        }
        // Cross-pool carry: land on the first same-axis slot of a
        // later pool the residual can legally reach. It may cross a
        // pool entirely -- or, in an ordered pool, the entries ahead
        // of the landing slot -- only while every live rotation it
        // passes commutes with it; the first live non-commuting
        // entry ends the search. (When it lands in an unordered
        // pool the axis is one of that block's strings and commutes
        // with the whole block, so the landing position is free.)
        for (size_t pj = bi + 1;
             !carried && !blocked && pj < pools.size(); ++pj) {
            Pool &np = pools[pj];
            if (!np.ordered) {
                auto it = np.index.find(e.axis);
                if (it != np.index.end()) {
                    np.seq[it->second].remaining += e.remaining;
                    e.remaining = 0.0;
                    carried = true;
                    break;
                }
                for (const Entry &ne : np.seq) {
                    if (!angleIsIdentity(ne.remaining) &&
                        !ne.axis.commutesWith(e.axis)) {
                        blocked = true;
                        break;
                    }
                }
            } else {
                for (Entry &ne : np.seq) {
                    if (ne.axis == e.axis) {
                        ne.remaining += e.remaining;
                        e.remaining = 0.0;
                        carried = true;
                        break;
                    }
                    if (!angleIsIdentity(ne.remaining) &&
                        !ne.axis.commutesWith(e.axis)) {
                        blocked = true;
                        break;
                    }
                }
            }
        }
        if (!carried) {
            std::ostringstream os;
            os << "block " << bi << ": axis " << describeAxis(e.axis)
               << " has angle residual " << e.remaining
               << " (not 0 mod 2pi)";
            detail = os.str();
            return false;
        }
    }
    return true;
}

} // namespace

VerifyReport
verifyConjugation(const std::vector<PauliBlock> &blocks,
                  const CompileResult &result)
{
    VerifyReport report;
    report.method = "conjugation";
    if (result.cancelled) {
        report.detail = "cancelled result";
        return report;
    }
    if (!verify_detail::circuitIsUnitary(result.circuit)) {
        report.detail = "circuit contains MEASURE/RESET (qubit reuse)";
        return report;
    }

    const int num_logical = blocksNumQubits(blocks);
    const int width = verify_detail::registerWidth(blocks, result);

    std::string why_not;
    auto perm = verify_detail::finalPermutation(result, num_logical,
                                                width, why_not);
    if (!perm) {
        report.detail = why_not;
        return report;
    }
    // Seeded compiles take logical qubit l in on wire initialLayout(l)
    // (identity when default-constructed); every input-frame statement
    // below is phrased on those wires. Wires outside the image are the
    // |0> ancillas at the circuit input.
    auto init = verify_detail::layoutPermutation(
        result.initialLayout, num_logical, width, why_not);
    if (!init) {
        report.detail = "initialLayout: " + why_not;
        return report;
    }
    std::vector<int> logical_at_in(width, -1);
    for (int l = 0; l < num_logical; ++l)
        logical_at_in[(*init)[l]] = l;

    // ---- scheduled reference ------------------------------------
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

    auto extend = [&](const PauliString &s) {
        PauliString out(static_cast<size_t>(num_logical));
        for (size_t q = 0; q < s.numQubits(); ++q)
            out.setOp(q, s.op(q));
        return out;
    };

    // All-pairs commutation across the program decides whether block
    // boundaries constrain rotation order at all.
    std::vector<PauliString> all_strings;
    for (const auto &b : blocks) {
        for (const auto &s : b.strings())
            all_strings.push_back(extend(s));
    }
    bool globally_commuting = true;
    for (size_t i = 0; i < all_strings.size() && globally_commuting; ++i) {
        for (size_t j = i + 1; j < all_strings.size(); ++j) {
            if (!all_strings[i].commutesWith(all_strings[j])) {
                globally_commuting = false;
                break;
            }
        }
    }

    std::vector<Pool> pools;
    if (globally_commuting) {
        pools.emplace_back();
    }
    for (size_t idx : order) {
        const PauliBlock &b = blocks[idx];
        if (!globally_commuting) {
            // A block whose strings all mutually commute is an
            // order-free pool with per-axis merged angles; otherwise
            // the in-block rotation order is part of the semantics
            // and the pool keeps one slot per string, in order.
            // (reorderForConsecutiveSimilarity leaves non-commuting
            // blocks untouched, so compiled output preserves that
            // order and such programs verify instead of skipping.)
            bool block_commuting = true;
            for (size_t i = 0; i < b.size() && block_commuting; ++i) {
                for (size_t j = i + 1; j < b.size(); ++j) {
                    if (!b.string(i).commutesWith(b.string(j))) {
                        block_commuting = false;
                        break;
                    }
                }
            }
            pools.emplace_back();
            pools.back().ordered = !block_commuting;
        }
        Pool &pool = pools.back();
        for (size_t i = 0; i < b.size(); ++i) {
            PauliString axis = extend(b.string(i));
            // A constant (all-identity) term is only a global phase:
            // the pipelines emit no gate for it, and it commutes with
            // every rotation, so it neither fills nor orders a slot.
            if (axis.isIdentity())
                continue;
            double angle = b.weight(i) * b.theta();
            if (pool.ordered) {
                pool.seq.push_back({std::move(axis), angle});
                continue;
            }
            auto [it, inserted] =
                pool.index.try_emplace(axis, pool.seq.size());
            if (inserted)
                pool.seq.push_back({std::move(axis), angle});
            else
                pool.seq[it->second].remaining += angle;
        }
    }
    if (pools.empty())
        pools.emplace_back();

    // ---- one walk: pull every rotation back to the input frame ----
    PauliFrame frame(width);
    std::vector<LogicalRotation> rotations;
    for (const auto &g : result.circuit.gates()) {
        if (frame.applyGate(g))
            continue;
        TETRIS_ASSERT(g.kind == GateKind::RZ || g.kind == GateKind::RX);
        const SignedPauli &back = g.kind == GateKind::RZ
                                      ? frame.backImageZ(g.q0)
                                      : frame.backImageX(g.q0);
        PauliString axis(static_cast<size_t>(num_logical));
        bool ancilla_only_z = true;
        for (int w = 0; w < width; ++w) {
            PauliOp op = back.p.op(w);
            int l = logical_at_in[w];
            if (l >= 0) {
                axis.setOp(l, op);
            } else if (op != PauliOp::I && op != PauliOp::Z) {
                ancilla_only_z = false;
                break;
            }
        }
        if (!ancilla_only_z) {
            std::ostringstream os;
            os << "rotation axis " << back.p.toText()
               << " carries X/Y on a |0> ancilla wire";
            report.status = VerifyStatus::Fail;
            report.detail = os.str();
            return report;
        }
        // Z factors on |0> ancillas are +1 eigenvalue: inert. A fully
        // ancilla/identity axis is a pure global phase.
        if (axis.isIdentity())
            continue;
        rotations.push_back({std::move(axis), back.sign * g.angle});
    }

    // ---- blockwise matching --------------------------------------
    size_t bi = 0;
    for (const auto &rot : rotations) {
        while (true) {
            if (bi >= pools.size()) {
                std::ostringstream os;
                os << "rotation on axis " << describeAxis(rot.axis)
                   << " after every block was satisfied";
                report.status = VerifyStatus::Fail;
                report.detail = os.str();
                return report;
            }
            Entry *slot = findSlot(pools[bi], rot.axis);
            if (slot != nullptr) {
                slot->remaining -= rot.angle;
                break;
            }
            std::string detail;
            if (!closePool(pools, bi, detail)) {
                std::ostringstream os;
                os << detail << "; next rotation axis "
                   << describeAxis(rot.axis);
                report.status = VerifyStatus::Fail;
                report.detail = os.str();
                return report;
            }
            ++bi;
        }
    }
    for (; bi < pools.size(); ++bi) {
        std::string detail;
        if (!closePool(pools, bi, detail)) {
            report.status = VerifyStatus::Fail;
            report.detail = detail;
            return report;
        }
    }

    // ---- residual Clifford = initial->final permutation ----------
    // Conditions phrased on back-images M(P) = C^dg P C: with V the
    // (logical-on-initialLayout-wires) (x) |0>_F subspace, C|V acts
    // as the initial->final wire permutation up to global phase iff
    // the pulled-back logical generators reduce to the input-wire
    // ones modulo the ancilla stabilizer <Z_f : f free-in>, and the
    // free-out stabilizer pulls back into that same group.
    std::vector<bool> logical_out(width, false);
    for (int l = 0; l < num_logical; ++l)
        logical_out[(*perm)[l]] = true;

    auto checkImage = [&](const SignedPauli &img, int expect_wire,
                          PauliOp expect_op, std::string &detail) {
        if (img.sign != 1) {
            detail = "negative sign";
            return false;
        }
        for (int w = 0; w < width; ++w) {
            PauliOp op = img.p.op(w);
            if (w == expect_wire) {
                if (op != expect_op) {
                    detail = "wrong operator on its own wire";
                    return false;
                }
            } else if (logical_at_in[w] >= 0) {
                if (op != PauliOp::I) {
                    detail = "spills onto another logical wire";
                    return false;
                }
            } else if (op != PauliOp::I && op != PauliOp::Z) {
                detail = "X/Y factor on a |0> ancilla wire";
                return false;
            }
        }
        return true;
    };

    for (int l = 0; l < num_logical; ++l) {
        int p = (*perm)[l];
        int in = (*init)[l];
        std::string why;
        if (!checkImage(frame.backImageX(p), in, PauliOp::X, why) ||
            !checkImage(frame.backImageZ(p), in, PauliOp::Z, why)) {
            std::ostringstream os;
            os << "residual Clifford does not map logical qubit " << l
               << " from wire " << in << " to wire " << p << ": "
               << why;
            report.status = VerifyStatus::Fail;
            report.detail = os.str();
            return report;
        }
    }
    for (int p = 0; p < width; ++p) {
        if (logical_out[p])
            continue;
        // -1 = "no single wire": only the ancilla-Z pattern may match.
        std::string why;
        if (!checkImage(frame.backImageZ(p), -1, PauliOp::I, why)) {
            std::ostringstream os;
            os << "residual Clifford does not return ancilla wire " << p
               << " to |0>: " << why;
            report.status = VerifyStatus::Fail;
            report.detail = os.str();
            return report;
        }
    }

    report.status = VerifyStatus::Pass;
    return report;
}

} // namespace tetris
