/**
 * @file
 * Regenerates Fig. 20: the SWAP-weight w sweep. Larger w biases the
 * leaf scoring toward fewer SWAPs at the cost of logical CNOT
 * cancellation; Sycamore's denser connectivity keeps its SWAP count
 * low and stable across the sweep. Both architectures' sweeps run as
 * one engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 20: SWAP weight w sweep (JW)",
                "Rows give inserted SWAP count and logical CNOTs on "
                "heavy-hex (Ithaca) and Sycamore.");

    Engine &engine = benchEngine();
    const Sweep sweep = fig20Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    std::vector<std::string> headers{"Bench", "Arch", "Metric"};
    for (const Stack &s : sweep.stacks)
        headers.push_back(s.name);
    TablePrinter table(headers);

    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        const Workload &w = sweep.workloads[i];
        std::vector<std::string> swaps{w.part(1), w.part(2), "SWAPs"};
        std::vector<std::string> logical{w.part(1), w.part(2),
                                         "LogicalCnots"};
        for (const Stack &s : sweep.stacks) {
            const CompileStats &stats = run.stats(i, s.name);
            swaps.push_back(formatCount(stats.swapCount));
            logical.push_back(formatCount(stats.logicalCnots));
        }
        table.addRow(swaps);
        table.addRow(logical);
    }
    table.print();
    return writeBenchJson("fig20", run.records, engine);
}
