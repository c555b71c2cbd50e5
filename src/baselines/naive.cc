#include "baselines/naive.hh"

#include <chrono>

#include "chem/uccsd.hh"
#include "circuit/peephole.hh"
#include "common/logging.hh"
#include "router/router.hh"

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
compileNaive(const std::vector<PauliBlock> &blocks,
             const CouplingGraph &hw, const NaiveOptions &opts)
{
    auto t0 = std::chrono::steady_clock::now();

    Circuit circ = synthesizeNaiveLogical(blocks);

    CompileResult result;
    SynthStats synth;
    // Only routing needs the device (routeCircuit checks it fits);
    // the unrouted bound is hardware-oblivious.
    if (opts.route) {
        RouteResult routed = routeCircuit(circ, hw, RouterKind::SabreLite);
        synth.insertedSwaps = routed.insertedSwaps;
        result.finalLayout = routed.finalLayout;
        result.circuit = std::move(routed.physical);
    } else {
        result.circuit = std::move(circ);
    }

    auto t1 = std::chrono::steady_clock::now();
    finalizeStats(result.circuit, naiveCnotCount(blocks),
                  std::chrono::duration<double>(t1 - t0).count(), synth,
                  result.stats);
    return result;
}

CompileResult
compileTketProxy(const std::vector<PauliBlock> &blocks,
                 const CouplingGraph &hw, TketFlavor flavor)
{
    auto t0 = std::chrono::steady_clock::now();

    Circuit logical = synthesizeNaiveLogical(blocks);
    logical = peepholeOptimize(logical);

    RouterKind router = flavor == TketFlavor::O2 ? RouterKind::SabreLite
                                                 : RouterKind::Greedy;
    RouteResult routed = routeCircuit(logical, hw, router);
    Circuit physical = peepholeOptimize(routed.physical);

    auto t1 = std::chrono::steady_clock::now();

    CompileResult result;
    result.circuit = std::move(physical);
    result.finalLayout = routed.finalLayout;
    SynthStats synth;
    synth.insertedSwaps = routed.insertedSwaps;
    finalizeStats(result.circuit, naiveCnotCount(blocks),
                  std::chrono::duration<double>(t1 - t0).count(), synth,
                  result.stats);
    return result;
}

} // namespace tetris
