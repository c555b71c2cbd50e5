#include "baselines/max_cancel.hh"

#include <chrono>

#include "baselines/naive.hh"
#include "chem/uccsd.hh"
#include "circuit/peephole.hh"
#include "common/logging.hh"
#include "core/tetris_ir.hh"
#include "router/router.hh"

namespace tetris
{

Circuit
synthesizeMaxCancelLogical(const std::vector<PauliBlock> &blocks,
                           size_t *logical_cx)
{
    Circuit circ(blocksNumQubits(blocks));
    size_t cx = 0;

    for (const auto &input_block : blocks) {
        // Use the same consecutive-similarity string order as Tetris
        // so this stays a true cancellation upper bound.
        PauliBlock b = reorderForConsecutiveSimilarity(input_block);
        TetrisBlock tb(b);
        if (tb.rootSet().empty() || tb.numStrings() < 2 ||
            !tb.hasUniformRootSupport()) {
            for (size_t i = 0; i < b.size(); ++i) {
                size_t before = circ.cnotCount();
                emitChainString(circ, b.string(i),
                                b.weight(i) * b.theta());
                cx += circ.cnotCount() - before;
            }
            continue;
        }

        // Single leaf chain l0 -> l1 -> ... -> root chain.
        const auto &leaves = tb.leafSet();
        const auto &roots = tb.rootSet();
        const bool has_leaves = !leaves.empty();

        // Prologue: leaf basis + internal chain CNOTs.
        for (size_t q : leaves)
            circ.basisEnter(static_cast<int>(q), tb.leafOp(q));
        for (size_t i = 0; i + 1 < leaves.size(); ++i) {
            circ.cx(static_cast<int>(leaves[i]),
                    static_cast<int>(leaves[i + 1]));
            ++cx;
        }

        for (size_t si = 0; si < b.size(); ++si) {
            const PauliString &s = b.string(si);
            for (size_t q : roots)
                circ.basisEnter(static_cast<int>(q), s.op(q));
            // Connector from the leaf-chain top into the root chain.
            if (has_leaves) {
                circ.cx(static_cast<int>(leaves.back()),
                        static_cast<int>(roots.front()));
                ++cx;
            }
            for (size_t i = 0; i + 1 < roots.size(); ++i) {
                circ.cx(static_cast<int>(roots[i]),
                        static_cast<int>(roots[i + 1]));
                ++cx;
            }
            circ.rz(static_cast<int>(roots.back()),
                    b.weight(si) * b.theta());
            for (size_t i = roots.size() - 1; i >= 1; --i) {
                circ.cx(static_cast<int>(roots[i - 1]),
                        static_cast<int>(roots[i]));
                ++cx;
            }
            if (has_leaves) {
                circ.cx(static_cast<int>(leaves.back()),
                        static_cast<int>(roots.front()));
                ++cx;
            }
            for (size_t q : roots)
                circ.basisExit(static_cast<int>(q), s.op(q));
        }

        // Epilogue: mirror the leaf chain.
        for (size_t i = has_leaves ? leaves.size() - 1 : 0; i >= 1; --i) {
            circ.cx(static_cast<int>(leaves[i - 1]),
                    static_cast<int>(leaves[i]));
            ++cx;
        }
        for (size_t q : leaves)
            circ.basisExit(static_cast<int>(q), tb.leafOp(q));
    }

    if (logical_cx)
        *logical_cx = cx;
    return circ;
}

namespace
{

CompileResult
routeLogicalPipeline(const std::vector<PauliBlock> &blocks,
                     const CouplingGraph &hw, bool logical_peephole,
                     bool route, RouterKind router)
{
    auto t0 = std::chrono::steady_clock::now();

    Circuit logical = synthesizeMaxCancelLogical(blocks);
    if (logical_peephole)
        logical = peepholeOptimize(std::move(logical));

    CompileResult result;
    SynthStats synth;
    // Only routing needs the device (routeCircuit checks it fits);
    // the unrouted bound is hardware-oblivious.
    if (route) {
        RouteResult routed = routeCircuit(logical, hw, router);
        synth.insertedSwaps = routed.insertedSwaps;
        result.finalLayout = routed.finalLayout;
        result.circuit = peepholeOptimize(std::move(routed.physical));
    } else {
        result.circuit = std::move(logical);
    }

    auto t1 = std::chrono::steady_clock::now();
    finalizeStats(result.circuit, naiveCnotCount(blocks),
                  std::chrono::duration<double>(t1 - t0).count(), synth,
                  result.stats);
    return result;
}

} // namespace

CompileResult
compileMaxCancel(const std::vector<PauliBlock> &blocks,
                 const CouplingGraph &hw, const MaxCancelOptions &opts)
{
    return routeLogicalPipeline(blocks, hw, opts.logicalPeephole,
                                opts.route, RouterKind::SabreLite);
}

CompileResult
compilePcoastProxy(const std::vector<PauliBlock> &blocks,
                   const CouplingGraph &hw)
{
    return routeLogicalPipeline(blocks, hw, /*logical_peephole=*/true,
                                /*route=*/true, RouterKind::Greedy);
}

} // namespace tetris
