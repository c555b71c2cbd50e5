/**
 * @file
 * Commutation-aware peephole optimizer ("Qiskit O3"-lite).
 *
 * Performs the gate-cancellation work the paper delegates to Qiskit
 * optimization level 3: adjacent inverse-pair removal (H.H, X.X,
 * S.Sdg, CX.CX, SWAP.SWAP), rotation merging (RZ.RZ, RX.RX), with
 * commutation-aware partner search (diagonal gates commute through
 * CX controls, X-basis gates through CX targets, CXs sharing a
 * control or sharing a target commute).
 *
 * The optimizer is a fixpoint of passes. Each pass visits gates in
 * program order and tries to reduce each one against the first
 * scanWindow live gates after it on its wires; the fixpoint stops
 * after a pass that reduces nothing, or after maxPasses. The first
 * pass visits every gate. A later visit goes only to gates whose scan
 * may have changed since their last visit: the gate just before a
 * removed one on each of its wires, the gates before that whose scan
 * hops over everything up to the removed position, and a rotation
 * another one merged into. A marked gate later in program order is
 * visited in the same pass, an earlier one in the next. The output
 * and every PeepholeStats field equal those of a fixpoint whose
 * passes visit every live gate.
 *
 * The pass is unitary-preserving; tests/test_peephole.cc checks this
 * against the statevector simulator on randomized circuits, and
 * checks the output against a copy of the every-gate fixpoint.
 */

#ifndef TETRIS_CIRCUIT_PEEPHOLE_HH
#define TETRIS_CIRCUIT_PEEPHOLE_HH

#include <cstddef>

#include "circuit/circuit.hh"

namespace tetris
{

/** Knobs for the peephole pass. */
struct PeepholeOptions
{
    /** Search past commuting gates for cancellation partners. */
    bool commutationAware = true;
    /** Upper bound on fixpoint iterations. */
    int maxPasses = 25;
    /** Cap on gates skipped during one partner scan. */
    int scanWindow = 96;
};

/** Counters describing what the pass removed. */
struct PeepholeStats
{
    size_t removedCx = 0;
    size_t removedSwap = 0;
    size_t removedOneQubit = 0;
    size_t mergedRotations = 0;
    int passes = 0;
};

/**
 * Run the optimizer and return the reduced circuit. The input's gate
 * vector is rewritten in place, so callers move their circuit in.
 */
Circuit peepholeOptimize(Circuit in, PeepholeStats *stats = nullptr,
                         const PeepholeOptions &opts = PeepholeOptions());

} // namespace tetris

#endif // TETRIS_CIRCUIT_PEEPHOLE_HH
