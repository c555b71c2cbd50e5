/**
 * @file
 * Hardware-aware circuit synthesis for Tetris blocks (Algorithm 1).
 *
 * For each block the synthesizer
 *   1. clusters the root-tree qubits around a center found on the
 *      coupling graph (SWAP insertion),
 *   2. attaches every leaf-tree qubit to the growing tree by
 *      minimizing score(qn, qm, w) = (d-1)*w + (qm in root ? 2*#ps
 *      : 2), preferring CNOT bridges through free |0> ancillas over
 *      SWAP chains when a fully-free path exists,
 *   3. emits the block circuit with structural two-qubit-gate
 *      cancellation: internal leaf-tree CNOTs and leaf basis gates
 *      appear only at the block boundary, while connector CNOTs and
 *      the root tree are re-emitted per string.
 *
 * The same machinery synthesizes one Pauli string at a time
 * (synthesizeString), which is the building block of the Paulihedral
 * baseline and the fallback for blocks without the uniform root
 * support the cancellation emission requires.
 */

#ifndef TETRIS_CORE_SYNTHESIS_HH
#define TETRIS_CORE_SYNTHESIS_HH

#include <vector>

#include "circuit/circuit.hh"
#include "core/tetris_ir.hh"
#include "hardware/coupling_graph.hh"
#include "hardware/layout.hh"

namespace tetris
{

/** Tuning knobs of the synthesis stage. */
struct SynthesisOptions
{
    /** SWAP weight w in the leaf scoring function (paper: w = 3). */
    double swapWeight = 3.0;
    /** Use CNOT bridging through free ancillas when possible. */
    bool enableBridging = true;
    /**
     * Adaptive tuning: fall back to per-string synthesis when the
     * structural cancellation cannot recoup the estimated root
     * clustering SWAP cost times this factor (0 disables the
     * fallback and always uses block-level synthesis).
     */
    double adaptiveFallbackFactor = 2.0;
};

/** Counters accumulated across synthesized blocks. */
struct SynthStats
{
    size_t insertedSwaps = 0;
    size_t emittedCx = 0;
    size_t bridgeNodes = 0;
    size_t blocksWithCancellation = 0;
    size_t blocksFallback = 0;
};

/**
 * Stateful synthesizer bound to one coupling graph. The layout is
 * owned by the caller and evolves across blocks (SWAPs persist).
 */
class BlockSynthesizer
{
  public:
    BlockSynthesizer(const CouplingGraph &hw, const SynthesisOptions &opts);

    /** Synthesize one Tetris block into `circ`, updating `layout`. */
    void synthesizeBlock(const TetrisBlock &tb, Layout &layout,
                         Circuit &circ, SynthStats &stats);

    /**
     * Synthesize exp(-i angle/2 * P) for one string (PH-style
     * per-string flow; also the fallback path).
     */
    void synthesizeString(const PauliString &s, double angle,
                          Layout &layout, Circuit &circ,
                          SynthStats &stats);

    /**
     * Scheduler helper: rough SWAP count needed to gather the
     * block's root qubits under the given layout.
     */
    long estimateRootClusterCost(const TetrisBlock &tb,
                                 const Layout &layout) const;

    const SynthesisOptions &options() const { return opts_; }

  private:
    struct AttachEdge
    {
        int childPos;
        int parentPos;
        bool connector;
    };

    struct AttachResult
    {
        bool ok = false;
        /** Parent-side-first per attachment; see emitBlock. */
        std::vector<AttachEdge> edges;
        /** Physical position of each attached leaf logical qubit. */
        std::vector<std::pair<int, int>> leafPositions;
        std::vector<int> bridgePositions;
    };

    /** Swap the occupant of `from` along `path` to its last node. */
    void moveAlongPath(const std::vector<int> &path, Layout &layout,
                       Circuit &circ, SynthStats &stats);

    /**
     * Move the given logical qubits until their physical positions
     * form a connected set; returns the positions. If center >= 0
     * the first qubit is routed onto it.
     */
    std::vector<int> growCluster(const std::vector<int> &logicals,
                                 int center, Layout &layout,
                                 Circuit &circ, SynthStats &stats);

    /** Root-tree parent relation via BFS from rootPos. */
    void buildBfsTree(const std::vector<int> &positions, int root_pos,
                      std::vector<int> &bfs_order,
                      std::vector<int> &parent) const;

    AttachResult attachLeaves(const TetrisBlock &tb,
                              const std::vector<int> &root_positions,
                              Layout &layout, Circuit &circ,
                              SynthStats &stats);

    void emitBlock(const TetrisBlock &tb,
                   const std::vector<int> &root_bfs_order,
                   const std::vector<int> &root_parent,
                   const AttachResult &att, Layout &layout,
                   Circuit &circ, SynthStats &stats);

    const CouplingGraph &hw_;
    SynthesisOptions opts_;
};

} // namespace tetris

#endif // TETRIS_CORE_SYNTHESIS_HH
