/**
 * @file
 * Regenerates Fig. 17: the logical-CNOT cancellation ratio achieved
 * by PH, Tetris, and the max-cancel logical circuit, for both
 * encoders. Expected ordering: PH <= Tetris <= max_cancel, with
 * Tetris close to the max_cancel bound and scaling with size. The
 * bound is the "max-cancel" pipeline unrouted with logical peephole
 * (no hardware constraint); all three run as one engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 17: logical CNOT cancellation ratio",
                "max_cancel = single-leaf-tree logical circuit + "
                "peephole (no hardware constraint).");

    Engine &engine = benchEngine();
    const Sweep sweep = fig17Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table(
        {"Encoder", "Bench", "PH", "Tetris", "max_cancel"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        std::vector<std::string> row{sweep.workloads[i].part(0),
                                     sweep.workloads[i].part(1)};
        for (const Stack &s : sweep.stacks)
            row.push_back(formatPercent(run.stats(i, s.name).cancelRatio));
        table.addRow(row);
    }
    table.print();
    return writeBenchJson("fig17", run.records, engine);
}
