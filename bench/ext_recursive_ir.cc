/**
 * @file
 * Extension ablation (beyond the paper's evaluation): the effect of
 * within-block string reordering -- the enabling step of
 * Tetris-IR-recursive, which the paper lists as future work -- on
 * the final CNOT count, for both encoders. Valid for UCCSD blocks
 * because all strings of an excitation block mutually commute.
 * Both variants compile as one parallel engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Extension: Tetris-IR-recursive string reordering",
                "CNOT counts with and without greedy consecutive-"
                "similarity reordering inside each block.");

    Engine &engine = benchEngine();
    const Sweep sweep = extRecursiveSweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Encoder", "Bench", "Tetris", "Tetris+reorder",
                        "Delta"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        // Reordering is on by default: "tetris" is the reordered pass.
        const CompileStats &base = run.stats(i, "tetris-no-reorder");
        const CompileStats &reordered = run.stats(i, "tetris");
        table.addRow({sweep.workloads[i].part(0),
                      sweep.workloads[i].part(1),
                      formatCount(base.cnotCount),
                      formatCount(reordered.cnotCount),
                      formatPercent(-improvement(base.cnotCount,
                                                 reordered.cnotCount))});
    }
    table.print();
    return writeBenchJson("ext_recursive", run.records, engine);
}
