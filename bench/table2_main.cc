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

#include "bench_util.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

namespace
{

struct RowSpec
{
    std::string group;
    std::string name;
};

void
addComparisonRow(TablePrinter &table, const RowSpec &spec,
                 const CompileStats &ph, const CompileStats &tet)
{
    auto pct = [](double a, double b) {
        return formatPercent(-improvement(a, b)); // paper prints -x%
    };
    table.addRow({
        spec.group,
        spec.name,
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

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();
    std::printf("[engine: %d threads]\n", engine.numThreads());

    std::vector<RowSpec> rows;
    std::vector<CompileJob> jobs; // PH then Tetris, per row
    auto addWorkload = [&](const std::string &group,
                           const std::string &name,
                           std::vector<PauliBlock> blocks) {
        rows.push_back({group, name});
        jobs.push_back(makeJob(name + "/ph", blocks, hw,
                               makePaulihedralPipeline()));
        jobs.push_back(makeJob(name + "/tetris", std::move(blocks), hw,
                               makeTetrisPipeline()));
    };

    for (const char *enc : {"jw", "bk"}) {
        for (const auto &spec : benchMolecules()) {
            addWorkload(enc == std::string("jw") ? "Jordan-Wigner"
                                                 : "Bravyi-Kitaev",
                        spec.name, buildMolecule(spec, enc));
        }
    }

    std::vector<int> ucc_sizes = {10, 15, 20, 25, 30, 35};
    if (quickMode())
        ucc_sizes = {10, 15};
    for (int n : ucc_sizes) {
        addWorkload("Synthetic", "UCC-" + std::to_string(n),
                    buildSyntheticUcc(n, 1000 + n));
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Encoder", "Bench", "Tot PH", "Tot Tet", "Tot%",
                        "CNOT PH", "CNOT Tet", "CNOT%", "Dep PH",
                        "Dep Tet", "Dep%", "Dur PH", "Dur Tet", "Dur%"});
    for (size_t i = 0; i < rows.size(); ++i) {
        addComparisonRow(table, rows[i], records[2 * i].second->stats,
                         records[2 * i + 1].second->stats);
    }
    table.print();
    return writeBenchJson("table2", records, engine);
}
