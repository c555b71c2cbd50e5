/**
 * @file
 * Naive chain synthesis, the routed-baseline pipeline, and the naive
 * and T|Ket> proxy baselines on it.
 *
 * The naive logical synthesis lowers each Pauli string independently
 * to a CNOT chain over its active qubits (the "original circuit" of
 * the paper's Table I and gate-cancellation-ratio denominators).
 * compileRouted() is the one pipeline of every baseline that
 * synthesizes hardware-obliviously and transpiles afterwards: the
 * naive bound, the T|Ket> proxy here, and max-cancel and the PCOAST
 * proxy (baselines/max_cancel.hh). The T|Ket> proxy models a
 * general-purpose compiler that is blind to inter-string structure:
 * naive synthesis, peephole, then SABRE-lite (O2 flavor) or greedy
 * (O3 flavor) routing and another peephole. See DESIGN.md
 * "Substitutions".
 */

#ifndef TETRIS_BASELINES_NAIVE_HH
#define TETRIS_BASELINES_NAIVE_HH

#include <optional>
#include <vector>

#include "circuit/circuit.hh"
#include "core/compiler.hh"
#include "hardware/coupling_graph.hh"
#include "pauli/pauli_block.hh"
#include "router/router.hh"

namespace tetris
{

/** Append exp(-i angle/2 P) as an ascending-order CNOT chain. */
void emitChainString(Circuit &circ, const PauliString &s, double angle);

/** The naive logical circuit: every string as an independent chain. */
Circuit synthesizeNaiveLogical(const std::vector<PauliBlock> &blocks);

/** A hardware-oblivious synthesis: blocks to a logical circuit. */
using LogicalSynthesis = Circuit (*)(const std::vector<PauliBlock> &);

/**
 * The routed baselines' one pipeline: `synthesize` the logical
 * circuit and peephole it if `logical_peephole`; then, given a
 * `router`, map it onto `hw` from the identity layout and peephole
 * the physical circuit if `routed_peephole`. With no router the
 * logical circuit is the result, the hardware-oblivious accounting
 * of Table I and Fig. 17. Routing counts as synthesis in the stage
 * times.
 */
CompileResult compileRouted(const std::vector<PauliBlock> &blocks,
                            const CouplingGraph &hw,
                            LogicalSynthesis synthesize,
                            bool logical_peephole,
                            std::optional<RouterKind> router,
                            bool routed_peephole);

/** Knobs of the naive pipeline. */
struct NaiveOptions
{
    /**
     * Map the chain circuit onto the device (SABRE-lite). When false
     * the logical circuit is returned untouched -- no SWAPs, no
     * peephole -- which is exactly the paper's "original circuit"
     * accounting (Table I): cnotCount == naiveCnotCount(blocks).
     */
    bool route = true;
};

/**
 * The naive pipeline: per-string chain synthesis with no gate
 * cancellation anywhere, optionally routed. The lower bound every
 * cancellation ratio is measured against.
 */
CompileResult compileNaive(const std::vector<PauliBlock> &blocks,
                           const CouplingGraph &hw,
                           const NaiveOptions &opts = NaiveOptions());

/** Routing flavors of the T|Ket> proxy (Fig. 15a). */
enum class TketFlavor
{
    /** T|Ket> + T|Ket> O2: lookahead routing. */
    O2,
    /** T|Ket> + Qiskit O3: greedy routing. */
    QiskitO3,
};

/** Compile with the T|Ket> proxy pipeline. */
CompileResult compileTketProxy(const std::vector<PauliBlock> &blocks,
                               const CouplingGraph &hw,
                               TketFlavor flavor = TketFlavor::O2);

} // namespace tetris

#endif // TETRIS_BASELINES_NAIVE_HH
