/**
 * @file
 * Tetris QAOA compilation pass (Sec. V-C).
 *
 * QAOA cost layers are products of commuting two-local ZZ rotations,
 * so there is little Pauli-string similarity to exploit; instead the
 * pass (a) schedules commuting gates greedily whenever their qubits
 * are adjacent, (b) chooses between SWAP insertion and fast CNOT
 * bridging through free |0> ancillas by a lookahead test (does the
 * SWAP help future gates?), and (c) reclaims finished qubits with
 * mid-circuit measure+reset so they can serve as bridge ancillas
 * (Hua et al.'s qubit-reuse opportunity; measurement commutes with
 * the remaining diagonal gates).
 */

#ifndef TETRIS_CORE_QAOA_PASS_HH
#define TETRIS_CORE_QAOA_PASS_HH

#include <vector>

#include "core/compiler.hh"
#include "hardware/coupling_graph.hh"
#include "pauli/pauli_block.hh"

namespace tetris
{

/** Knobs of the QAOA bridging pass. */
struct QaoaPassOptions
{
    /** Allow CNOT bridging through free ancillas. */
    bool enableBridging = true;
    /**
     * Measure+reset qubits whose gates are all done, freeing them as
     * bridge ancillas. Disable for unitary-equivalence testing.
     */
    bool enableQubitReuse = true;
    /** Run the peephole pass afterwards. */
    bool runPeephole = true;
};

/**
 * Compile a list of 1- or 2-local Z-basis blocks (one string each,
 * e.g. from buildQaoaCostBlocks) for the device.
 */
CompileResult compileQaoaTetris(const std::vector<PauliBlock> &blocks,
                                const CouplingGraph &hw,
                                const QaoaPassOptions &opts
                                = QaoaPassOptions());

} // namespace tetris

#endif // TETRIS_CORE_QAOA_PASS_HH
