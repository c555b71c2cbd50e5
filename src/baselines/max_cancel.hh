/**
 * @file
 * The max-cancel baseline and the PCOAST proxy.
 *
 * max-cancel fixes the logical circuit to a single leaf tree per
 * block, achieving the maximum structural two-qubit cancellation the
 * Pauli grouping admits (Observation 2 / Fig. 2 upper bound), then
 * transpiles with a router -- trading a flood of SWAPs for the
 * cancellation. The PCOAST proxy is the same hardware-oblivious
 * logical optimization followed by greedy routing, modeling PCOAST's
 * profile of excellent logical counts but heavy SWAP overhead
 * (Fig. 15b). Both run on compileRouted() (baselines/naive.hh).
 * See DESIGN.md "Substitutions".
 */

#ifndef TETRIS_BASELINES_MAX_CANCEL_HH
#define TETRIS_BASELINES_MAX_CANCEL_HH

#include <vector>

#include "circuit/circuit.hh"
#include "core/compiler.hh"
#include "hardware/coupling_graph.hh"
#include "pauli/pauli_block.hh"

namespace tetris
{

/**
 * The max-cancel logical circuit: per block, a single leaf chain
 * over the common qubits emitted once at the block boundary, the
 * root chain re-emitted per string.
 */
Circuit synthesizeMaxCancelLogical(const std::vector<PauliBlock> &blocks);

/** Knobs of the max-cancel pipeline. */
struct MaxCancelOptions
{
    /**
     * Route onto the device (SABRE-lite) and peephole the physical
     * circuit. When false the logical circuit is kept -- the
     * hardware-oblivious cancellation bound of Fig. 17.
     */
    bool route = true;
    /** Peephole the logical circuit before (or instead of) routing. */
    bool logicalPeephole = false;
};

/** max-cancel + router + peephole for a device. */
CompileResult compileMaxCancel(const std::vector<PauliBlock> &blocks,
                               const CouplingGraph &hw,
                               const MaxCancelOptions &opts
                               = MaxCancelOptions());

/** PCOAST proxy: logical peephole optimization + greedy routing. */
CompileResult compilePcoastProxy(const std::vector<PauliBlock> &blocks,
                                 const CouplingGraph &hw);

} // namespace tetris

#endif // TETRIS_BASELINES_MAX_CANCEL_HH
