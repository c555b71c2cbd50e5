/**
 * @file
 * Regenerates Fig. 16: PH and Tetris compiled with and without the
 * peephole ("Qiskit O3") pass. The paper's observation: O3 recovers
 * a lot for PH (which delegates cancellation entirely), while
 * Tetris performs its own structural cancellation and gains less.
 * The 4 configurations x N molecules run as one engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 16: with/without peephole (Qiskit O3 stand-in)",
                "CNOT count and depth; JW encoder, heavy-hex 65q.");

    Engine &engine = benchEngine();
    const Sweep sweep = fig16Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Bench", "PH raw CNOT", "PH+O3 CNOT",
                        "Tetris raw CNOT", "Tetris+O3 CNOT",
                        "PH raw depth", "PH+O3 depth",
                        "Tetris raw depth", "Tetris+O3 depth"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        std::vector<std::string> row{sweep.workloads[i].part(1)};
        for (const Stack &s : sweep.stacks)
            row.push_back(formatCount(run.stats(i, s.name).cnotCount));
        for (const Stack &s : sweep.stacks)
            row.push_back(formatCount(run.stats(i, s.name).depth));
        table.addRow(row);
    }
    table.print();
    return writeBenchJson("fig16", run.records, engine);
}
