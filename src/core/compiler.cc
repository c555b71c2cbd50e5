#include "core/compiler.hh"

#include <algorithm>
#include <numeric>

#include "chem/uccsd.hh"
#include "circuit/peephole.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace tetris
{

int
blocksNumQubits(const std::vector<PauliBlock> &blocks)
{
    TETRIS_ASSERT(!blocks.empty(), "no blocks to compile");
    return static_cast<int>(blocks.front().numQubits());
}

void
finalizeStats(const std::vector<PauliBlock> &blocks,
              const StageClock &clock, CompileResult &result)
{
    CompileStats &stats = result.stats;
    stats.compileSeconds = clock.elapsed();
    const CircuitMetrics m = result.circuit.metrics();
    stats.cnotCount = m.cnotCount;
    stats.oneQubitCount = m.oneQubitCount;
    stats.totalGateCount = m.cnotCount + m.oneQubitCount;
    stats.depth = m.depth;
    stats.durationDt = m.durationDt;
    stats.swapCount = m.swapCount;
    stats.swapCnots = 3 * stats.swapCount;
    stats.logicalCnots = stats.cnotCount - stats.swapCnots;
    stats.originalCnots = naiveCnotCount(blocks);
    stats.cancelRatio =
        stats.originalCnots == 0
            ? 0.0
            : static_cast<double>(stats.originalCnots -
                                  std::min(stats.originalCnots,
                                           stats.logicalCnots)) /
                  static_cast<double>(stats.originalCnots);
}

std::vector<size_t>
lexicographicOrder(const std::vector<PauliBlock> &blocks)
{
    std::vector<std::string> keys(blocks.size());
    for (size_t i = 0; i < blocks.size(); ++i) {
        for (const auto &s : blocks[i].strings())
            keys[i] += s.toText();
    }
    std::vector<size_t> order(blocks.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return keys[a] < keys[b]; });
    return order;
}

CompileResult
compileTetris(const std::vector<PauliBlock> &blocks,
              const CouplingGraph &hw, const TetrisOptions &opts)
{
    StageClock clock;
    CompileResult result;
    CompileStats &stats = result.stats;

    const int num_logical = blocksNumQubits(blocks);
    TETRIS_ASSERT(num_logical <= hw.numQubits(),
                  "workload needs more qubits than the device has");

    std::vector<TetrisBlock> ir;
    if (opts.reorderStringsInBlock) {
        std::vector<PauliBlock> reordered;
        reordered.reserve(blocks.size());
        for (const auto &b : blocks)
            reordered.push_back(reorderForConsecutiveSimilarity(b));
        ir = buildTetrisIr(reordered);
    } else {
        ir = buildTetrisIr(blocks);
    }
    Layout layout(num_logical, hw.numQubits());
    bool seeded = false;
    if (!opts.initialLayout.empty()) {
        TETRIS_ASSERT(opts.initialLayout.size() ==
                          static_cast<size_t>(num_logical),
                      "initialLayout size != workload qubit count");
        auto from = Layout::fromMapping(opts.initialLayout, hw.numQubits());
        TETRIS_ASSERT(from.has_value(),
                      "initialLayout is not an injective map into the "
                      "device qubits");
        layout = *from;
        seeded = true;
    }
    Circuit circ(hw.numQubits());
    BlockSynthesizer synth(hw, opts.synthesis);
    result.blockOrder.reserve(blocks.size());

    // Everything between two syntheses is scheduling.
    auto synthesize = [&](size_t idx) {
        clock.lap(stats.scheduleSeconds);
        synth.synthesizeBlock(ir[idx], layout, circ, stats.synthesis);
        clock.lap(stats.synthSeconds);
        result.blockOrder.push_back(idx);
    };

    if (opts.scheduler == SchedulerKind::InputOrder) {
        for (size_t i = 0; i < ir.size(); ++i)
            synthesize(i);
    } else if (opts.scheduler == SchedulerKind::Lexicographic) {
        for (size_t i : lexicographicOrder(blocks))
            synthesize(i);
    } else {
        // Lookahead scheduling (Sec. V-B): start from the block with
        // the largest active length; then repeatedly rank remaining
        // blocks by similarity to the last scheduled block, and among
        // the top-K pick the one with the cheapest root clustering
        // under the live layout. Each step scores every remaining
        // block once, from signatures built once with the IR, and
        // sorts only the K best. The order (score descending, then
        // block index) is total, so the top K and the pick do not
        // depend on the order of `remaining`, and the chosen block
        // leaves it by swap-remove.
        const LeafSignatures signatures(ir);
        struct Scored
        {
            double score;
            size_t block;
        };
        std::vector<Scored> remaining;
        remaining.reserve(ir.size());
        for (size_t i = 0; i < ir.size(); ++i)
            remaining.push_back({0.0, i});
        auto take_out = [&](size_t pos) {
            const size_t idx = remaining[pos].block;
            remaining[pos] = remaining.back();
            remaining.pop_back();
            return idx;
        };

        size_t first = 0;
        for (size_t i = 1; i < ir.size(); ++i) {
            if (ir[i].activeLength() > ir[first].activeLength())
                first = i;
        }
        size_t last_block = take_out(first);
        synthesize(last_block);

        const size_t k = static_cast<size_t>(std::max(1, opts.lookaheadK));
        while (!remaining.empty()) {
            for (Scored &r : remaining)
                r.score = signatures.similarity(last_block, r.block);
            const size_t take = std::min(k, remaining.size());
            std::partial_sort(remaining.begin(), remaining.begin() + take,
                              remaining.end(),
                              [](const Scored &a, const Scored &b) {
                                  if (a.score != b.score)
                                      return a.score > b.score;
                                  return a.block < b.block;
                              });

            size_t chosen = 0;
            long best_cost = synth.estimateRootClusterCost(
                ir[remaining[0].block], layout);
            for (size_t i = 1; i < take; ++i) {
                long cost = synth.estimateRootClusterCost(
                    ir[remaining[i].block], layout);
                if (cost < best_cost) {
                    best_cost = cost;
                    chosen = i;
                }
            }

            last_block = take_out(chosen);
            synthesize(last_block);
        }
    }

    if (opts.runPeephole)
        circ = peepholeOptimize(std::move(circ));
    clock.lap(stats.peepholeSeconds);

    result.circuit = std::move(circ);
    if (seeded) {
        auto from =
            Layout::fromMapping(opts.initialLayout, hw.numQubits());
        result.initialLayout = *from;
    }
    result.finalLayout = layout;
    finalizeStats(blocks, clock, result);
    return result;
}

uint64_t
optionsContentHash(const TetrisOptions &opts)
{
    uint64_t h = fnvMix(kFnvOffset, static_cast<int>(opts.scheduler));
    h = fnvMix(h, opts.lookaheadK);
    h = fnvMix(h, opts.runPeephole);
    h = fnvMix(h, opts.reorderStringsInBlock);
    h = fnvMix(h, opts.synthesis.swapWeight);
    h = fnvMix(h, opts.synthesis.enableBridging);
    h = fnvMix(h, opts.synthesis.adaptiveFallbackFactor);
    // The seed placement changes the emitted circuit, so it must be
    // part of the cache key: a chunk compiled from layout A must not
    // satisfy a lookup for the same blocks seeded from layout B.
    h = fnvMix(h, opts.initialLayout.size());
    for (int p : opts.initialLayout)
        h = fnvMix(h, p);
    return h;
}

void
writeJson(JsonWriter &w, const CompileStats &stats)
{
    w.beginObject();
    w.key("cnotCount").value(static_cast<uint64_t>(stats.cnotCount));
    w.key("oneQubitCount")
        .value(static_cast<uint64_t>(stats.oneQubitCount));
    w.key("totalGateCount")
        .value(static_cast<uint64_t>(stats.totalGateCount));
    w.key("depth").value(static_cast<uint64_t>(stats.depth));
    w.key("durationDt").value(stats.durationDt);
    w.key("swapCount").value(static_cast<uint64_t>(stats.swapCount));
    w.key("swapCnots").value(static_cast<uint64_t>(stats.swapCnots));
    w.key("logicalCnots")
        .value(static_cast<uint64_t>(stats.logicalCnots));
    w.key("originalCnots")
        .value(static_cast<uint64_t>(stats.originalCnots));
    w.key("cancelRatio").value(stats.cancelRatio);
    w.key("compileSeconds").value(stats.compileSeconds);
    w.key("scheduleSeconds").value(stats.scheduleSeconds);
    w.key("synthSeconds").value(stats.synthSeconds);
    w.key("peepholeSeconds").value(stats.peepholeSeconds);
    w.key("synthesis").beginObject();
    w.key("insertedSwaps")
        .value(static_cast<uint64_t>(stats.synthesis.insertedSwaps));
    w.key("emittedCx")
        .value(static_cast<uint64_t>(stats.synthesis.emittedCx));
    w.key("bridgeNodes")
        .value(static_cast<uint64_t>(stats.synthesis.bridgeNodes));
    w.key("blocksWithCancellation")
        .value(static_cast<uint64_t>(
            stats.synthesis.blocksWithCancellation));
    w.key("blocksFallback")
        .value(static_cast<uint64_t>(stats.synthesis.blocksFallback));
    w.endObject();
    w.endObject();
}

} // namespace tetris
