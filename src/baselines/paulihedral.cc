#include "baselines/paulihedral.hh"

#include "circuit/peephole.hh"
#include "core/synthesis.hh"

namespace tetris
{

CompileResult
compilePaulihedral(const std::vector<PauliBlock> &blocks,
                   const CouplingGraph &hw, const PaulihedralOptions &opts)
{
    StageClock clock;
    CompileResult result;
    CompileStats &stats = result.stats;

    const int num_logical = blocksNumQubits(blocks);
    Layout layout(num_logical, hw.numQubits());
    Circuit circ(hw.numQubits());

    SynthesisOptions synth_opts;
    synth_opts.enableBridging = false; // PH uses SWAPs only.
    BlockSynthesizer synth(hw, synth_opts);

    // Lexicographic block order keeps similar strings adjacent.
    const std::vector<size_t> order = lexicographicOrder(blocks);
    result.blockOrder.reserve(order.size());
    clock.lap(stats.scheduleSeconds);

    for (size_t idx : order) {
        const PauliBlock &b = blocks[idx];
        for (size_t i = 0; i < b.size(); ++i) {
            synth.synthesizeString(b.string(i), b.weight(i) * b.theta(),
                                   layout, circ, stats.synthesis);
        }
        result.blockOrder.push_back(idx);
    }
    clock.lap(stats.synthSeconds);

    if (opts.runPeephole)
        circ = peepholeOptimize(std::move(circ));
    clock.lap(stats.peepholeSeconds);

    result.circuit = std::move(circ);
    result.finalLayout = layout;
    finalizeStats(blocks, clock, result);
    return result;
}

} // namespace tetris
