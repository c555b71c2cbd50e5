/**
 * @file
 * Regenerates Fig. 18: total CNOT gate breakdown (logical CNOTs vs
 * SWAP-induced CNOTs) for PH, Tetris, and routed max-cancel, with
 * the Tetris-over-PH improvement, on JW, BK and synthetic suites.
 * The 3 stacks x all workloads run as one engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 18: total CNOT breakdown (x = logical + swap)",
                "Paper improvements: JW -15.4..-41.3%, BK "
                "-10.2..-28.2%, synthetic -18.5..-28.1%.");

    Engine &engine = benchEngine();
    const Sweep sweep = fig18Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Group", "Bench", "PH", "PH_S", "Tetris",
                        "Tetris_S", "max", "max_S", "Improv"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        const Workload &w = sweep.workloads[i];
        const CompileStats &ph = run.stats(i, "ph");
        const CompileStats &tet = run.stats(i, "tetris");
        const CompileStats &max = run.stats(i, "max-cancel");
        table.addRow({
            w.part(0) == "ucc" ? "Synthetic" : w.part(0),
            w.part(1),
            formatCount(ph.cnotCount),
            formatCount(ph.swapCnots),
            formatCount(tet.cnotCount),
            formatCount(tet.swapCnots),
            formatCount(max.cnotCount),
            formatCount(max.swapCnots),
            formatPercent(-improvement(ph.cnotCount, tet.cnotCount)),
        });
    }
    table.print();
    return writeBenchJson("fig18", run.records, engine);
}
