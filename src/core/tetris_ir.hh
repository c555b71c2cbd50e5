/**
 * @file
 * Tetris-IR: the refined Pauli-string block representation.
 *
 * A TetrisBlock annotates a PauliBlock with the root-tree-qubit-set
 * and leaf-tree-qubit-set split (Sec. IV-A of the paper) plus the
 * derived quantities the scheduler needs (active length, leaf
 * operators, the Eq. 1 similarity). The textual rendering follows
 * Fig. 6: qubits reordered root-first, the common section lower-case
 * and elided on interior strings.
 */

#ifndef TETRIS_CORE_TETRIS_IR_HH
#define TETRIS_CORE_TETRIS_IR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pauli/pauli_block.hh"

namespace tetris
{

/** A Pauli block with its root/leaf qubit-set split. */
class TetrisBlock
{
  public:
    /** Derive root and leaf sets from the block's common operators. */
    explicit TetrisBlock(PauliBlock block);

    const PauliBlock &block() const { return block_; }
    size_t numStrings() const { return block_.size(); }

    /** Qubits whose operator differs across strings (root set). */
    const std::vector<size_t> &rootSet() const { return rootSet_; }

    /** Qubits with one common operator across all strings (leaf set). */
    const std::vector<size_t> &leafSet() const { return leafSet_; }

    /** The shared operator on a leaf qubit. */
    PauliOp leafOp(size_t qubit) const;

    /** Union-support size (the scheduler's active length). */
    size_t activeLength() const { return activeLength_; }

    /**
     * True when every string has a non-identity operator on every
     * root qubit; the block-level cancellation emission requires
     * this (always holds for UCCSD and QAOA inputs; the compiler
     * falls back to per-string synthesis otherwise).
     */
    bool hasUniformRootSupport() const;

    /** Render the block in Tetris-IR text form (Fig. 6 style). */
    std::string toText() const;

  private:
    PauliBlock block_;
    std::vector<size_t> rootSet_;
    std::vector<size_t> leafSet_;
    size_t activeLength_;
};

/**
 * The Eq. 1 operands of a block list, built once and stored flat so
 * the scheduler's inner loop is popcounts over adjacent words. One
 * record per block holds its leaf count, then one 64-qubit word per
 * 64 qubits of width for each of the leaf-occupancy mask, the head
 * string's X and Z planes and the tail string's X and Z planes. On a
 * leaf qubit every string carries the leaf operator, so the head
 * planes encode it.
 */
class LeafSignatures
{
  public:
    LeafSignatures() = default;

    /** Signatures of every block of `ir`, in order. */
    explicit LeafSignatures(const std::vector<TetrisBlock> &ir);

    /** Append one block's record; all blocks share one width. */
    void append(const TetrisBlock &block);

    /**
     * Eq. 1 similarity of block `b` scheduled right after block `a`:
     * |C| / (|LT1| + |LT2| - |C|), where C counts leaf qubits the two
     * blocks share with identical operators. Ties break on how many
     * operators b's head string repeats from a's tail string, scaled
     * to under 1e-3 so it never overrides Eq. 1.
     */
    double similarity(size_t a, size_t b) const;

  private:
    /** Words per plane; a record is 1 + 5 * words_ words. */
    size_t words_ = 0;
    size_t numQubits_ = 0;
    std::vector<uint64_t> records_;
};

/** Eq. 1 similarity of a two-block list (see LeafSignatures). */
double blockSimilarity(const TetrisBlock &a, const TetrisBlock &b);

/** Wrap a list of Pauli blocks into TetrisBlocks. */
std::vector<TetrisBlock> buildTetrisIr(const std::vector<PauliBlock> &);

/**
 * Tetris-IR-recursive enabler (the paper's Sec. IV-B1 "future
 * work"): reorder the strings of a block so consecutive strings
 * share as many operators as possible (greedy nearest-neighbor
 * chain). The block-level root/leaf split is order-independent, but
 * the recursive cancellation opportunities between consecutive
 * strings -- harvested by the peephole pass on the re-emitted root
 * section -- grow with consecutive similarity.
 */
PauliBlock reorderForConsecutiveSimilarity(const PauliBlock &block);

} // namespace tetris

#endif // TETRIS_CORE_TETRIS_IR_HH
