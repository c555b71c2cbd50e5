#include "pauli/pauli_block.hh"

#include <algorithm>
#include <bit>

#include "common/hash.hh"
#include "common/logging.hh"

namespace tetris
{

namespace
{

/** Append the qubit indices of every set bit in `mask`, ascending. */
void
appendSetBits(const std::vector<uint64_t> &mask, std::vector<size_t> &out)
{
    for (size_t i = 0; i < mask.size(); ++i) {
        uint64_t w = mask[i];
        while (w != 0) {
            out.push_back(i * 64 +
                          static_cast<size_t>(std::countr_zero(w)));
            w &= w - 1;
        }
    }
}

} // namespace

PauliBlock::PauliBlock(std::vector<PauliString> strings, double theta)
    : strings_(std::move(strings)), weights_(strings_.size(), 1.0),
      theta_(theta)
{
    TETRIS_ASSERT(!strings_.empty(), "empty PauliBlock");
}

PauliBlock::PauliBlock(std::vector<PauliString> strings,
                       std::vector<double> weights, double theta)
    : strings_(std::move(strings)), weights_(std::move(weights)),
      theta_(theta)
{
    TETRIS_ASSERT(!strings_.empty(), "empty PauliBlock");
    TETRIS_ASSERT(weights_.size() == strings_.size(),
                  "weight/string arity mismatch");
}

size_t
PauliBlock::numQubits() const
{
    return strings_.empty() ? 0 : strings_.front().numQubits();
}

std::vector<size_t>
PauliBlock::support() const
{
    std::vector<size_t> out;
    if (strings_.empty())
        return out;
    // Union of supports: OR every string's occupancy plane.
    std::vector<uint64_t> active(strings_.front().numWords(), 0);
    for (const auto &s : strings_) {
        for (size_t i = 0; i < active.size(); ++i)
            active[i] |= s.xWords()[i] | s.zWords()[i];
    }
    appendSetBits(active, out);
    return out;
}

std::vector<size_t>
PauliBlock::commonQubits() const
{
    std::vector<size_t> out;
    const PauliString &first = strings_.front();
    // Start from the first string's non-identity qubits and knock
    // out every qubit where another string's (x, z) pair differs.
    std::vector<uint64_t> common(first.numWords());
    for (size_t i = 0; i < common.size(); ++i)
        common[i] = first.xWords()[i] | first.zWords()[i];
    for (size_t k = 1; k < strings_.size(); ++k) {
        const PauliString &s = strings_[k];
        for (size_t i = 0; i < common.size(); ++i) {
            common[i] &= ~(first.xWords()[i] ^ s.xWords()[i]) &
                         ~(first.zWords()[i] ^ s.zWords()[i]);
        }
    }
    appendSetBits(common, out);
    return out;
}

std::vector<size_t>
PauliBlock::rootQubits() const
{
    std::vector<size_t> sup = support();
    std::vector<size_t> common = commonQubits();
    std::vector<size_t> out;
    std::set_difference(sup.begin(), sup.end(), common.begin(), common.end(),
                        std::back_inserter(out));
    return out;
}

TETRIS_POPCNT_KERNEL size_t
PauliBlock::commonOperatorCount(const PauliString &a, const PauliString &b)
{
    TETRIS_ASSERT(a.numQubits() == b.numQubits());
    // Count qubits that are non-identity in `a` and where both (x, z)
    // pairs agree; padding bits are zero in both planes, so the
    // occupancy mask already excludes them.
    size_t c = 0;
    for (size_t i = 0; i < a.numWords(); ++i) {
        const uint64_t same =
            ~(a.xWords()[i] ^ b.xWords()[i]) &
            ~(a.zWords()[i] ^ b.zWords()[i]);
        c += static_cast<size_t>(std::popcount(
            (a.xWords()[i] | a.zWords()[i]) & same));
    }
    return c;
}

uint64_t
PauliBlock::contentHash() const
{
    // Word-wide FNV-style mixing over the bit-planes; one multiply
    // per 64 qubits instead of one per qubit. Content-equal blocks
    // still hash equal: the planes are a pure function of the
    // per-qubit operators (padding is zeroed by invariant).
    uint64_t h = fnvMix(kFnvOffset, strings_.size());
    for (const auto &s : strings_) {
        h = fnvMix(h, s.numQubits());
        for (size_t i = 0; i < s.numWords(); ++i) {
            h = (h ^ s.xWords()[i]) * kFnvPrime;
            h = (h ^ s.zWords()[i]) * kFnvPrime;
        }
    }
    for (double w : weights_)
        h = fnvMix(h, w);
    return fnvMix(h, theta_);
}

size_t
maxCancelCnotBound(const std::vector<PauliBlock> &blocks)
{
    size_t bound = 0;
    const PauliString *prev = nullptr;
    for (const auto &b : blocks) {
        for (const auto &s : b.strings()) {
            if (prev) {
                // A common section of c qubits in the leaf tree has
                // c-1 internal (cancellable) edges, bounded by the
                // tree size of either neighbor.
                size_t c = std::min({
                    PauliBlock::commonOperatorCount(*prev, s),
                    prev->weight(),
                    s.weight(),
                });
                if (c >= 2)
                    bound += 2 * (c - 1);
            }
            prev = &s;
        }
    }
    return bound;
}

} // namespace tetris
