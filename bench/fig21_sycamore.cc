/**
 * @file
 * Regenerates Fig. 21: PH vs Tetris on the Google-Sycamore-like
 * 64-qubit backend (JW): depth and total CNOT count with the
 * SWAP-induced breakdown. Compiled as one parallel engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 21: Sycamore backend (JW)",
                "Paper: depth improvement -18.1..-47.8%, CNOT "
                "improvement -25.5..-42.3%.");

    Engine &engine = benchEngine();
    const Sweep sweep = fig21Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Bench", "PH depth", "Tet depth", "Depth%",
                        "PH CNOT", "Tet CNOT", "CNOT%", "PH_S",
                        "Tetris_S"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        const CompileStats &ph = run.stats(i, "ph");
        const CompileStats &tet = run.stats(i, "tetris");
        table.addRow({
            sweep.workloads[i].part(1),
            formatCount(ph.depth),
            formatCount(tet.depth),
            formatPercent(-improvement(ph.depth, tet.depth)),
            formatCount(ph.cnotCount),
            formatCount(tet.cnotCount),
            formatPercent(-improvement(ph.cnotCount, tet.cnotCount)),
            formatCount(ph.swapCnots),
            formatCount(tet.swapCnots),
        });
    }
    table.print();
    return writeBenchJson("fig21", run.records, engine);
}
