/**
 * @file
 * Regenerates Table II: Paulihedral vs Tetris on the 65-qubit
 * heavy-hex backend -- total gates, CNOT gates, depth, and duration
 * with improvement percentages -- for the six molecules under both
 * encoders plus the synthetic UCC suite.
 *
 * All (workload, pipeline) pairs are submitted to the batch engine
 * and compiled N-way parallel; rows are printed from the results in
 * submission order, so the table is identical to the serial run.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

namespace
{

void
addComparisonRow(TablePrinter &table, const Workload &w,
                 const CompileStats &ph, const CompileStats &tet)
{
    auto pct = [](double a, double b) {
        return formatPercent(-improvement(a, b)); // paper prints -x%
    };
    const std::string family = w.part(0);
    table.addRow({
        family == "jw"   ? "Jordan-Wigner"
        : family == "bk" ? "Bravyi-Kitaev"
                         : "Synthetic",
        w.part(1),
        formatCount(ph.totalGateCount),
        formatCount(tet.totalGateCount),
        pct(ph.totalGateCount, tet.totalGateCount),
        formatCount(ph.cnotCount),
        formatCount(tet.cnotCount),
        pct(ph.cnotCount, tet.cnotCount),
        formatCount(ph.depth),
        formatCount(tet.depth),
        pct(ph.depth, tet.depth),
        formatCount(ph.durationDt),
        formatCount(tet.durationDt),
        pct(ph.durationDt, tet.durationDt),
    });
}

} // namespace

int
main()
{
    printBanner(
        "Table II: Paulihedral (PH) vs Tetris on IBM heavy-hex 65q",
        "Negative percentages = reduction by Tetris (paper JW CNOT: "
        "-17.2..-40.7%, depth: -11.0..-37.6%).");

    Engine &engine = benchEngine();
    std::printf("[engine: %d threads]\n", engine.numThreads());

    const Sweep sweep = table2Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Encoder", "Bench", "Tot PH", "Tot Tet", "Tot%",
                        "CNOT PH", "CNOT Tet", "CNOT%", "Dep PH",
                        "Dep Tet", "Dep%", "Dur PH", "Dur Tet", "Dur%"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        addComparisonRow(table, sweep.workloads[i], run.stats(i, "ph"),
                         run.stats(i, "tetris"));
    }
    table.print();
    return writeBenchJson("table2", run.records, engine);
}
