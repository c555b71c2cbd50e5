/**
 * @file
 * Regenerates Fig. 19: sensitivity of Tetris to the scheduler
 * lookahead size K (1..22): total CNOT count and depth per
 * molecule on the heavy-hex backend. The whole K sweep compiles
 * in parallel through the batch engine.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 19: lookahead size K sweep (JW, heavy-hex)",
                "Paper: CNOT count drops sharply from K=1 and is "
                "stable for K > 10.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();
    const std::vector<int> ks = {1, 4, 7, 10, 13, 16, 19, 22};

    auto mols = benchMolecules();
    std::vector<CompileJob> jobs;
    for (const auto &spec : mols) {
        auto blocks = buildMolecule(spec, "jw");
        for (int k : ks) {
            TetrisOptions opts;
            opts.lookaheadK = k;
            jobs.push_back(makeJob(spec.name + "/k" + std::to_string(k),
                                   blocks, hw,
                                   makeTetrisPipeline(opts)));
        }
    }

    auto records = runJobs(engine, std::move(jobs));

    std::vector<std::string> headers{"Bench", "Metric"};
    for (int k : ks)
        headers.push_back("K=" + std::to_string(k));
    TablePrinter table(headers);

    for (size_t i = 0; i < mols.size(); ++i) {
        std::vector<std::string> cnot_row{mols[i].name, "CNOT"};
        std::vector<std::string> depth_row{mols[i].name, "Depth"};
        for (size_t j = 0; j < ks.size(); ++j) {
            const CompileStats &s =
                records[i * ks.size() + j].second->stats;
            cnot_row.push_back(formatCount(s.cnotCount));
            depth_row.push_back(formatCount(s.depth));
        }
        table.addRow(cnot_row);
        table.addRow(depth_row);
    }
    table.print();
    return writeBenchJson("fig19", records, engine);
}
