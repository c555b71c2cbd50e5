#include "core/tetris_ir.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <sstream>

#include "common/logging.hh"

namespace tetris
{

TetrisBlock::TetrisBlock(PauliBlock block) : block_(std::move(block))
{
    leafSet_ = block_.commonQubits();
    rootSet_ = block_.rootQubits();
    activeLength_ = block_.activeLength();
}

PauliOp
TetrisBlock::leafOp(size_t qubit) const
{
    TETRIS_ASSERT(std::binary_search(leafSet_.begin(), leafSet_.end(),
                                     qubit),
                  "not a leaf qubit");
    return block_.strings().front().op(qubit);
}

bool
TetrisBlock::hasUniformRootSupport() const
{
    if (rootSet_.empty())
        return true;
    // Root-occupancy mask once, then one masked word scan per string.
    const size_t words = block_.strings().front().numWords();
    std::vector<uint64_t> root_mask(words, 0);
    for (size_t q : rootSet_)
        root_mask[q >> 6] |= uint64_t{1} << (q & 63);
    for (const auto &s : block_.strings()) {
        for (size_t i = 0; i < words; ++i) {
            if ((root_mask[i] & ~(s.xWords()[i] | s.zWords()[i])) != 0)
                return false;
        }
    }
    return true;
}

std::string
TetrisBlock::toText() const
{
    // Qubit order annotation: root qubits first, then leaf qubits.
    std::ostringstream os;
    os << "{ ";
    for (size_t q : rootSet_)
        os << q << " ";
    os << "| ";
    for (size_t q : leafSet_)
        os << q << " ";
    os << ", {";
    for (size_t i = 0; i < block_.size(); ++i) {
        const auto &s = block_.string(i);
        os << (i ? ", " : "");
        for (size_t q : rootSet_)
            os << pauliChar(s.op(q));
        // Interior strings elide the common section; boundary strings
        // render it lower-case (the cancellable peripheral section).
        if (i == 0 || i + 1 == block_.size()) {
            for (size_t q : leafSet_) {
                os << static_cast<char>(
                    std::tolower(pauliChar(s.op(q))));
            }
        }
    }
    os << "}, theta=" << block_.theta() << " }";
    return os.str();
}

LeafSignatures::LeafSignatures(const std::vector<TetrisBlock> &ir)
{
    for (const TetrisBlock &tb : ir)
        append(tb);
}

void
LeafSignatures::append(const TetrisBlock &block)
{
    const PauliString &head = block.block().strings().front();
    const PauliString &tail = block.block().strings().back();
    if (records_.empty()) {
        words_ = head.numWords();
        numQubits_ = head.numQubits();
    }
    TETRIS_ASSERT(head.numQubits() == numQubits_,
                  "blocks of one list must share a width");
    records_.push_back(block.leafSet().size());
    const size_t leaf_at = records_.size();
    records_.resize(leaf_at + words_, 0);
    for (size_t q : block.leafSet())
        records_[leaf_at + (q >> 6)] |= uint64_t{1} << (q & 63);
    for (const uint64_t *plane :
         {head.xWords(), head.zWords(), tail.xWords(), tail.zWords()})
        records_.insert(records_.end(), plane, plane + words_);
}

TETRIS_POPCNT_KERNEL double
LeafSignatures::similarity(size_t a, size_t b) const
{
    const size_t w = words_;
    const uint64_t *ra = &records_[a * (1 + 5 * w)];
    const uint64_t *rb = &records_[b * (1 + 5 * w)];
    const uint64_t *leaf_a = ra + 1, *head_xa = leaf_a + w,
                   *head_za = head_xa + w, *tail_xa = head_za + w,
                   *tail_za = tail_xa + w;
    const uint64_t *leaf_b = rb + 1, *head_xb = leaf_b + w,
                   *head_zb = head_xb + w;
    size_t common = 0;
    size_t boundary = 0;
    for (size_t i = 0; i < w; ++i) {
        // Shared leaves whose operators (the head's there) agree.
        common += static_cast<size_t>(std::popcount(
            leaf_a[i] & leaf_b[i] &
            ~((head_xa[i] ^ head_xb[i]) | (head_za[i] ^ head_zb[i]))));
        // Operators of a's tail that b's head repeats; padding bits
        // are zero in both planes, so the occupancy excludes them.
        boundary += static_cast<size_t>(std::popcount(
            (tail_xa[i] | tail_za[i]) &
            ~((tail_xa[i] ^ head_xb[i]) | (tail_za[i] ^ head_zb[i]))));
    }
    const size_t denom = ra[0] + rb[0] - common;
    double eq1 = denom == 0 ? 0.0
                            : static_cast<double>(common) /
                                  static_cast<double>(denom);

    // Tie-break with boundary-string similarity: when leaf sets are
    // uninformative (e.g. Bravyi-Kitaev blocks), adjacency of blocks
    // whose boundary strings share operators still enables peephole
    // cancellation. Scaled so it can never override Eq. 1.
    double tie = static_cast<double>(boundary) /
                 static_cast<double>(numQubits_ + 1);
    return eq1 + 1e-3 * tie;
}

double
blockSimilarity(const TetrisBlock &a, const TetrisBlock &b)
{
    LeafSignatures signatures;
    signatures.append(a);
    signatures.append(b);
    return signatures.similarity(0, 1);
}

PauliBlock
reorderForConsecutiveSimilarity(const PauliBlock &block)
{
    const size_t n = block.size();
    if (n <= 2)
        return block;

    // Reordering changes the rotation product order, which is only
    // semantics-preserving when the strings mutually commute (true
    // for UCCSD excitation blocks); otherwise pass through.
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            if (!block.string(i).commutesWith(block.string(j)))
                return block;
        }
    }

    auto common = [&](size_t i, size_t j) {
        return PauliBlock::commonOperatorCount(block.string(i),
                                               block.string(j));
    };

    std::vector<size_t> order{0};
    std::vector<bool> used(n, false);
    used[0] = true;
    while (order.size() < n) {
        size_t last = order.back();
        size_t best = n;
        size_t best_common = 0;
        for (size_t j = 0; j < n; ++j) {
            if (used[j])
                continue;
            size_t c = common(last, j);
            if (best == n || c > best_common) {
                best = j;
                best_common = c;
            }
        }
        used[best] = true;
        order.push_back(best);
    }

    std::vector<PauliString> strings;
    std::vector<double> weights;
    strings.reserve(n);
    weights.reserve(n);
    for (size_t idx : order) {
        strings.push_back(block.string(idx));
        weights.push_back(block.weight(idx));
    }
    return PauliBlock(std::move(strings), std::move(weights),
                      block.theta());
}

std::vector<TetrisBlock>
buildTetrisIr(const std::vector<PauliBlock> &blocks)
{
    std::vector<TetrisBlock> out;
    out.reserve(blocks.size());
    for (const auto &b : blocks)
        out.emplace_back(b);
    return out;
}

} // namespace tetris
