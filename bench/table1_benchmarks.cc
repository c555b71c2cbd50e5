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

#include "bench_util.hh"
#include "hardware/topologies.hh"
#include "qaoa/qaoa.hh"

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

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();

    NaiveOptions logical_only;
    logical_only.route = false;
    auto naive = makeNaivePipeline(logical_only);

    struct Row
    {
        std::string type;
        std::string name;
        int qubits;
        size_t pauli;
        size_t one_q;
        PaperRow paper;
    };
    std::vector<Row> rows;
    std::vector<CompileJob> jobs;
    auto addWorkload = [&](const std::string &type,
                           const std::string &name, int qubits,
                           size_t pauli, size_t one_q,
                           const PaperRow &paper,
                           std::vector<PauliBlock> blocks) {
        rows.push_back({type, name, qubits, pauli, one_q, paper});
        jobs.push_back(
            makeJob(name + "/naive", std::move(blocks), hw, naive));
    };

    const std::vector<PaperRow> mol_paper = {
        {640, 8064, 4992},     {1488, 21072, 11712},
        {4240, 73680, 33600},  {8400, 173264, 66752},
        {17280, 440960, 137600}, {20944, 568656, 166848},
    };
    const auto &mols = moleculeBenchmarks();
    for (size_t i = 0; i < mols.size(); ++i) {
        auto blocks = buildMolecule(mols[i], "jw");
        // Counts hoisted out: argument evaluation order is
        // unspecified relative to the move of `blocks`.
        size_t pauli = totalStrings(blocks);
        size_t one_q = naiveOneQubitCount(blocks);
        addWorkload("Molecule", mols[i].name, mols[i].numSpinOrbitals,
                    pauli, one_q, mol_paper[i], std::move(blocks));
    }

    const std::vector<PaperRow> ucc_paper = {
        {800, 8976, 6400},    {1800, 27200, 14400},
        {3200, 59712, 25600}, {5000, 117376, 40000},
        {7200, 193984, 57600}, {9800, 304976, 78400},
    };
    const int ucc_sizes[] = {10, 15, 20, 25, 30, 35};
    for (size_t i = 0; i < 6; ++i) {
        int n = ucc_sizes[i];
        auto blocks = buildSyntheticUcc(n, 1000 + n);
        size_t pauli = totalStrings(blocks);
        size_t one_q = naiveOneQubitCount(blocks);
        addWorkload("UCCSD", "UCC-" + std::to_string(n), n, pauli,
                    one_q, ucc_paper[i], std::move(blocks));
    }

    const std::vector<PaperRow> qaoa_paper = {
        {25, 50, 57}, {31, 62, 67}, {40, 80, 80},
        {24, 48, 56}, {27, 54, 63}, {30, 60, 70},
    };
    const auto &specs = qaoaBenchmarks();
    for (size_t i = 0; i < specs.size(); ++i) {
        Graph g = buildQaoaGraph(specs[i], 1);
        auto blocks = buildQaoaCostBlocks(g, 0.4);
        // Table I 1Q accounting: one RZ per edge + H and RX layers.
        size_t one_q = g.numEdges() + 2 * g.numNodes();
        size_t pauli = blocks.size();
        addWorkload("QAOA", specs[i].name, specs[i].numNodes, pauli,
                    one_q, qaoa_paper[i], std::move(blocks));
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Type", "Bench", "#qubits", "#Pauli(paper)",
                        "#CNOT(paper)", "#1Q(paper)"});
    for (size_t i = 0; i < rows.size(); ++i) {
        // Unrouted naive: cnotCount == the paper's original CNOTs.
        size_t cnots = records[i].second->stats.cnotCount;
        table.addRow({rows[i].type, rows[i].name,
                      std::to_string(rows[i].qubits),
                      withPaper(rows[i].pauli, rows[i].paper.pauli),
                      withPaper(cnots, rows[i].paper.cnot),
                      withPaper(rows[i].one_q, rows[i].paper.one_q)});
    }
    table.print();
    return writeBenchJson("table1", records, engine);
}
