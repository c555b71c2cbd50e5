/**
 * @file
 * Regenerates Fig. 14: CNOT gate count across full compiler stacks
 * -- T|Ket> proxy, PCOAST proxy, Paulihedral, Tetris with the
 * PH-style scheduler, and Tetris with the lookahead scheduler
 * (K=10) -- on LiH..MgH2 (JW, heavy-hex), mirroring the paper's
 * molecule subset (T|Ket> timed out beyond MgH2 in the paper).
 * All five stacks per molecule run as one parallel engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 14: compiler comparison (CNOT count, JW, heavy-hex)",
                "Expected ordering: TKet >> PCOAST > PH > Tetris > "
                "Tetris+lookahead.");

    Engine &engine = benchEngine();
    const Sweep sweep = fig14Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Bench", "TKet", "PCOAST", "PH", "Tetris",
                        "Tetris+lookahead"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        std::vector<std::string> row{sweep.workloads[i].part(1)};
        for (const Stack &s : sweep.stacks)
            row.push_back(formatCount(run.stats(i, s.name).cnotCount));
        table.addRow(row);
    }
    table.print();
    return writeBenchJson("fig14", run.records, engine);
}
