/**
 * @file
 * Regenerates Table I: benchmark characteristics (#qubits, #Pauli,
 * #CNOT, #1Q) for the molecule suite (JW), the synthetic UCC-n
 * suite, and the QAOA graphs. Paper values printed alongside.
 *
 * The #CNOT column is the "original circuit" -- the unrouted naive
 * per-string chain synthesis -- produced by the "naive" pipeline
 * (route = false) through the batch engine, which also exercises the
 * engine's live progress reporting on this long workload-building
 * sweep and drops the BENCH_table1.json trajectory.
 */

#include <cstdio>
#include <iterator>

#include "common/logging.hh"
#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

namespace
{

struct PaperRow
{
    size_t pauli, cnot, one_q;
};

/** "measured (paper)" cell text. */
std::string
withPaper(size_t measured, size_t paper)
{
    return std::to_string(measured) + " (" + std::to_string(paper) +
           ")";
}

} // namespace

int
main()
{
    printBanner("Table I: Benchmarks",
                "Molecules use the JW encoder (blocked spin order); "
                "paper values in parentheses.");

    Engine &engine = benchEngine();

    // One row per workload of table1Sweep(): the six molecules, UCC-10
    // .. UCC-35, then the six QAOA graphs.
    const PaperRow paper[] = {
        {640, 8064, 4992},     {1488, 21072, 11712},
        {4240, 73680, 33600},  {8400, 173264, 66752},
        {17280, 440960, 137600}, {20944, 568656, 166848},
        {800, 8976, 6400},    {1800, 27200, 14400},
        {3200, 59712, 25600}, {5000, 117376, 40000},
        {7200, 193984, 57600}, {9800, 304976, 78400},
        {25, 50, 57}, {31, 62, 67}, {40, 80, 80},
        {24, 48, 56}, {27, 54, 63}, {30, 60, 70},
    };

    const Sweep sweep = table1Sweep();
    TETRIS_ASSERT(sweep.workloads.size() == std::size(paper));
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Type", "Bench", "#qubits", "#Pauli(paper)",
                        "#CNOT(paper)", "#1Q(paper)"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        const Workload &w = sweep.workloads[i];
        const std::string family = w.part(0);
        const size_t qubits = w.blocks.front().numQubits();
        size_t pauli = totalStrings(w.blocks);
        size_t one_q = naiveOneQubitCount(w.blocks);
        std::string type = "Molecule", bench = w.part(1);
        if (family == "ucc") {
            type = "UCCSD";
        } else if (family != "jw") {
            // A QAOA graph: one ZZ block per edge; Table I counts one
            // RZ per edge plus the H and RX layers.
            type = "QAOA";
            bench = family;
            pauli = w.blocks.size();
            one_q = pauli + 2 * qubits;
        }
        // Unrouted naive: cnotCount == the paper's original CNOTs.
        table.addRow({type, bench, std::to_string(qubits),
                      withPaper(pauli, paper[i].pauli),
                      withPaper(run.stats(i, "naive-unrouted").cnotCount,
                                paper[i].cnot),
                      withPaper(one_q, paper[i].one_q)});
    }
    table.print();
    return writeBenchJson("table1", run.records, engine);
}
