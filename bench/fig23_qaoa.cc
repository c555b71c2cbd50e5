/**
 * @file
 * Regenerates Fig. 23: QAOA benchmarks. Gate count and depth of the
 * 2QAN proxy and Tetris (bridging + qubit reuse), normalized to
 * Paulihedral; five random graph instances per benchmark, averaged.
 * All (instance, pipeline) pairs compile as one engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 23: QAOA (normalized to Paulihedral; lower is "
                "better)",
                "Paper: Tetris averages -66.5% depth / -60.6% gates "
                "vs PH and beats 2QAN by 15-20%.");

    Engine &engine = benchEngine();
    const Sweep sweep = fig23Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Bench", "2QAN/PH gates", "Tetris/PH gates",
                        "2QAN/PH depth", "Tetris/PH depth"});
    // One row per graph: the mean over its consecutive instances.
    const auto &workloads = sweep.workloads;
    for (size_t i = 0; i < workloads.size();) {
        const std::string graph = workloads[i].part(0);
        double qg = 0, tg = 0, qd = 0, td = 0;
        int seeds = 0;
        for (; i < workloads.size() && workloads[i].part(0) == graph;
             ++i, ++seeds) {
            const CompileStats &ph = run.stats(i, "ph");
            const CompileStats &qan = run.stats(i, "2qan");
            const CompileStats &tet = run.stats(i, "tetris");
            qg += static_cast<double>(qan.cnotCount) / ph.cnotCount;
            tg += static_cast<double>(tet.cnotCount) / ph.cnotCount;
            qd += static_cast<double>(qan.depth) / ph.depth;
            td += static_cast<double>(tet.depth) / ph.depth;
        }
        table.addRow({graph, formatDouble(qg / seeds),
                      formatDouble(tg / seeds), formatDouble(qd / seeds),
                      formatDouble(td / seeds)});
    }
    table.print();
    return writeBenchJson("fig23", run.records, engine);
}
