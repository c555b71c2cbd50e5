/**
 * @file
 * Regenerates Fig. 15: (a) the two T|Ket> proxy flavors (lookahead
 * O2 routing vs greedy Qiskit-O3-style routing); (b) the breakdown
 * of SWAP-induced versus logical CNOTs for PCOAST, PH, and Tetris.
 * Both panels compile as one parallel engine batch.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    Engine &engine = benchEngine();
    const Sweep sweep = fig15Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    printBanner("Fig. 15a: T|Ket> + TKet-O2 vs T|Ket> + Qiskit-O3",
                "Paper: the O2 flavor wins in all cases.");
    TablePrinter a({"Bench", "TKet+O2 CNOT", "TKet+QiskitO3 CNOT"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        a.addRow({sweep.workloads[i].part(1),
                  formatCount(run.stats(i, "tket-o2").cnotCount),
                  formatCount(run.stats(i, "tket-o3").cnotCount)});
    }
    a.print();

    printBanner("Fig. 15b: logical vs SWAP-induced CNOT breakdown",
                "Paper: PCOAST has the lowest logical count but by far "
                "the largest SWAP-induced CNOT fraction.");
    TablePrinter b({"Bench", "PCOAST logical", "PCOAST swaps",
                    "PH logical", "PH swaps", "Tetris logical",
                    "Tetris swaps"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        std::vector<std::string> row{sweep.workloads[i].part(1)};
        for (const char *stack : {"pcoast", "ph", "tetris"}) {
            row.push_back(formatCount(run.stats(i, stack).logicalCnots));
            row.push_back(formatCount(run.stats(i, stack).swapCnots));
        }
        b.addRow(row);
    }
    b.print();
    return writeBenchJson("fig15", run.records, engine);
}
