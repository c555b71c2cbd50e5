/**
 * @file
 * Regenerates Fig. 19: sensitivity of Tetris to the scheduler
 * lookahead size K (1..22): total CNOT count and depth per
 * molecule on the heavy-hex backend. The whole K sweep compiles
 * in parallel through the batch engine.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 19: lookahead size K sweep (JW, heavy-hex)",
                "Paper: CNOT count drops sharply from K=1 and is "
                "stable for K > 10.");

    Engine &engine = benchEngine();
    const Sweep sweep = fig19Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    std::vector<std::string> headers{"Bench", "Metric"};
    for (const Stack &s : sweep.stacks)
        headers.push_back("K" + s.name.substr(1)); // "k=4" -> "K=4"
    TablePrinter table(headers);

    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        const std::string bench = sweep.workloads[i].part(1);
        std::vector<std::string> cnot_row{bench, "CNOT"};
        std::vector<std::string> depth_row{bench, "Depth"};
        for (const Stack &s : sweep.stacks) {
            const CompileStats &stats = run.stats(i, s.name);
            cnot_row.push_back(formatCount(stats.cnotCount));
            depth_row.push_back(formatCount(stats.depth));
        }
        table.addRow(cnot_row);
        table.addRow(depth_row);
    }
    table.print();
    return writeBenchJson("fig19", run.records, engine);
}
