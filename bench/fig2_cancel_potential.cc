/**
 * @file
 * Regenerates Fig. 2: the CNOT gate-cancellation opportunity gap.
 * For each molecule and encoder, the ratio of CNOTs Paulihedral
 * actually cancels versus the analytic maximum the Pauli-string
 * grouping admits (max_cancel). The PH compilations run through the
 * batch engine ("paulihedral" pipeline); the bound is the closed-form
 * maxCancelCnotBound(), no compilation needed.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 2: CNOT cancellation opportunity (PH vs max_cancel)",
                "Paper (JW): PH 37.8..50.8%, max 61.1..81.1%. "
                "Paper (BK): PH 24.9..43.4%, max 56.2..76.9%.");

    Engine &engine = benchEngine();
    const Sweep sweep = fig2Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table(
        {"Encoder", "Bench", "PH cancel", "max_cancel bound"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        const Workload &w = sweep.workloads[i];
        const double max_ratio =
            static_cast<double>(maxCancelCnotBound(w.blocks)) /
            static_cast<double>(naiveCnotCount(w.blocks));
        table.addRow({w.part(0), w.part(1),
                      formatPercent(run.stats(i, "ph").cancelRatio),
                      formatPercent(max_ratio)});
    }
    table.print();
    return writeBenchJson("fig2", run.records, engine);
}
