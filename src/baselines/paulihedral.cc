#include "baselines/paulihedral.hh"

#include <chrono>

#include "chem/uccsd.hh"
#include "circuit/peephole.hh"
#include "core/synthesis.hh"

namespace tetris
{

CompileResult
compilePaulihedral(const std::vector<PauliBlock> &blocks,
                   const CouplingGraph &hw, const PaulihedralOptions &opts)
{
    auto t0 = std::chrono::steady_clock::now();

    const int num_logical = blocksNumQubits(blocks);
    Layout layout(num_logical, hw.numQubits());
    Circuit circ(hw.numQubits());

    SynthesisOptions synth_opts;
    synth_opts.enableBridging = false; // PH uses SWAPs only.
    BlockSynthesizer synth(hw, synth_opts);
    SynthStats synth_stats;

    // Lexicographic block order keeps similar strings adjacent.
    const std::vector<size_t> order = lexicographicOrder(blocks);

    CompileResult result;
    result.blockOrder.reserve(order.size());
    auto t_sched = std::chrono::steady_clock::now();
    for (size_t idx : order) {
        const PauliBlock &b = blocks[idx];
        for (size_t i = 0; i < b.size(); ++i) {
            synth.synthesizeString(b.string(i), b.weight(i) * b.theta(),
                                   layout, circ, synth_stats);
        }
        result.blockOrder.push_back(idx);
    }

    auto t_synth = std::chrono::steady_clock::now();
    if (opts.runPeephole)
        circ = peepholeOptimize(std::move(circ));

    auto t1 = std::chrono::steady_clock::now();

    result.circuit = std::move(circ);
    result.finalLayout = layout;
    finalizeStats(result.circuit, naiveCnotCount(blocks),
                  std::chrono::duration<double>(t1 - t0).count(),
                  synth_stats, result.stats);
    result.stats.scheduleSeconds =
        std::chrono::duration<double>(t_sched - t0).count();
    result.stats.synthSeconds =
        std::chrono::duration<double>(t_synth - t_sched).count();
    result.stats.peepholeSeconds =
        std::chrono::duration<double>(t1 - t_synth).count();
    return result;
}

} // namespace tetris
