#include "baselines/naive.hh"

#include "circuit/peephole.hh"

namespace tetris
{

void
emitChainString(Circuit &circ, const PauliString &s, double angle)
{
    std::vector<size_t> active = s.support();
    if (active.empty())
        return;
    for (size_t q : active)
        circ.basisEnter(static_cast<int>(q), s.op(q));
    for (size_t i = 0; i + 1 < active.size(); ++i) {
        circ.cx(static_cast<int>(active[i]),
                static_cast<int>(active[i + 1]));
    }
    circ.rz(static_cast<int>(active.back()), angle);
    for (size_t i = active.size() - 1; i >= 1; --i) {
        circ.cx(static_cast<int>(active[i - 1]),
                static_cast<int>(active[i]));
    }
    for (size_t q : active)
        circ.basisExit(static_cast<int>(q), s.op(q));
}

Circuit
synthesizeNaiveLogical(const std::vector<PauliBlock> &blocks)
{
    Circuit circ(blocksNumQubits(blocks));
    for (const auto &b : blocks) {
        for (size_t i = 0; i < b.size(); ++i)
            emitChainString(circ, b.string(i), b.weight(i) * b.theta());
    }
    return circ;
}

CompileResult
compileRouted(const std::vector<PauliBlock> &blocks,
              const CouplingGraph &hw, LogicalSynthesis synthesize,
              bool logical_peephole, std::optional<RouterKind> router,
              bool routed_peephole)
{
    StageClock clock;
    CompileResult result;
    CompileStats &stats = result.stats;

    Circuit circ = synthesize(blocks);
    clock.lap(stats.synthSeconds);
    if (logical_peephole)
        circ = peepholeOptimize(std::move(circ));
    clock.lap(stats.peepholeSeconds);

    // Only routing needs the device (routeCircuit checks it fits);
    // the unrouted bound is hardware-oblivious.
    if (router) {
        RouteResult routed = routeCircuit(circ, hw, *router);
        stats.synthesis.insertedSwaps = routed.insertedSwaps;
        result.finalLayout = routed.finalLayout;
        circ = std::move(routed.physical);
        clock.lap(stats.synthSeconds);
        if (routed_peephole)
            circ = peepholeOptimize(std::move(circ));
        clock.lap(stats.peepholeSeconds);
    }

    result.circuit = std::move(circ);
    finalizeStats(blocks, clock, result);
    return result;
}

CompileResult
compileNaive(const std::vector<PauliBlock> &blocks,
             const CouplingGraph &hw, const NaiveOptions &opts)
{
    return compileRouted(blocks, hw, synthesizeNaiveLogical,
                         /*logical_peephole=*/false,
                         opts.route ? std::optional(RouterKind::SabreLite)
                                    : std::nullopt,
                         /*routed_peephole=*/false);
}

CompileResult
compileTketProxy(const std::vector<PauliBlock> &blocks,
                 const CouplingGraph &hw, TketFlavor flavor)
{
    return compileRouted(blocks, hw, synthesizeNaiveLogical,
                         /*logical_peephole=*/true,
                         flavor == TketFlavor::O2 ? RouterKind::SabreLite
                                                  : RouterKind::Greedy,
                         /*routed_peephole=*/true);
}

} // namespace tetris
