#include "baselines/max_cancel.hh"

#include "baselines/naive.hh"
#include "core/tetris_ir.hh"

namespace tetris
{

Circuit
synthesizeMaxCancelLogical(const std::vector<PauliBlock> &blocks)
{
    Circuit circ(blocksNumQubits(blocks));

    for (const auto &input_block : blocks) {
        // Use the same consecutive-similarity string order as Tetris
        // so this stays a true cancellation upper bound.
        PauliBlock b = reorderForConsecutiveSimilarity(input_block);
        TetrisBlock tb(b);
        if (tb.rootSet().empty() || tb.numStrings() < 2 ||
            !tb.hasUniformRootSupport()) {
            for (size_t i = 0; i < b.size(); ++i) {
                emitChainString(circ, b.string(i),
                                b.weight(i) * b.theta());
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
        }

        for (size_t si = 0; si < b.size(); ++si) {
            const PauliString &s = b.string(si);
            for (size_t q : roots)
                circ.basisEnter(static_cast<int>(q), s.op(q));
            // Connector from the leaf-chain top into the root chain.
            if (has_leaves) {
                circ.cx(static_cast<int>(leaves.back()),
                        static_cast<int>(roots.front()));
            }
            for (size_t i = 0; i + 1 < roots.size(); ++i) {
                circ.cx(static_cast<int>(roots[i]),
                        static_cast<int>(roots[i + 1]));
            }
            circ.rz(static_cast<int>(roots.back()),
                    b.weight(si) * b.theta());
            for (size_t i = roots.size() - 1; i >= 1; --i) {
                circ.cx(static_cast<int>(roots[i - 1]),
                        static_cast<int>(roots[i]));
            }
            if (has_leaves) {
                circ.cx(static_cast<int>(leaves.back()),
                        static_cast<int>(roots.front()));
            }
            for (size_t q : roots)
                circ.basisExit(static_cast<int>(q), s.op(q));
        }

        // Epilogue: mirror the leaf chain.
        for (size_t i = has_leaves ? leaves.size() - 1 : 0; i >= 1; --i) {
            circ.cx(static_cast<int>(leaves[i - 1]),
                    static_cast<int>(leaves[i]));
        }
        for (size_t q : leaves)
            circ.basisExit(static_cast<int>(q), tb.leafOp(q));
    }

    return circ;
}

CompileResult
compileMaxCancel(const std::vector<PauliBlock> &blocks,
                 const CouplingGraph &hw, const MaxCancelOptions &opts)
{
    return compileRouted(blocks, hw, synthesizeMaxCancelLogical,
                         opts.logicalPeephole,
                         opts.route ? std::optional(RouterKind::SabreLite)
                                    : std::nullopt,
                         /*routed_peephole=*/true);
}

CompileResult
compilePcoastProxy(const std::vector<PauliBlock> &blocks,
                   const CouplingGraph &hw)
{
    return compileRouted(blocks, hw, synthesizeMaxCancelLogical,
                         /*logical_peephole=*/true, RouterKind::Greedy,
                         /*routed_peephole=*/true);
}

} // namespace tetris
