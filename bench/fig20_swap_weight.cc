/**
 * @file
 * Regenerates Fig. 20: the SWAP-weight w sweep. Larger w biases the
 * leaf scoring toward fewer SWAPs at the cost of logical CNOT
 * cancellation; Sycamore's denser connectivity keeps its SWAP count
 * low and stable across the sweep. Both architectures' sweeps run as
 * one engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 20: SWAP weight w sweep (JW)",
                "Rows give inserted SWAP count and logical CNOTs on "
                "heavy-hex (Ithaca) and Sycamore.");

    Engine &engine = benchEngine();
    auto ithaca = shareDevice(ibmIthaca65());
    auto sycamore = shareDevice(googleSycamore64());

    const std::vector<double> ws = {0.1, 0.5, 1, 2, 3, 4, 5, 10, 100};
    std::vector<std::string> names = {"BeH2", "MgH2", "CO2"};
    if (quickMode())
        names = {"BeH2"};
    const std::vector<const char *> archs = {"ithaca", "sycamore"};

    std::vector<CompileJob> jobs;
    for (const auto &name : names) {
        auto blocks = buildMolecule(moleculeByName(name), "jw");
        for (const char *arch : archs) {
            auto hw = arch == std::string("ithaca") ? ithaca : sycamore;
            for (double w : ws) {
                TetrisOptions opts;
                opts.synthesis.swapWeight = w;
                jobs.push_back(makeJob(name + "/" + arch + "/w=" +
                                           formatDouble(w, 1),
                                       blocks, hw,
                                       makeTetrisPipeline(opts)));
            }
        }
    }

    auto records = runJobs(engine, std::move(jobs));

    std::vector<std::string> headers{"Bench", "Arch", "Metric"};
    for (double w : ws)
        headers.push_back("w=" + formatDouble(w, w < 1 ? 1 : 0));
    TablePrinter table(headers);

    size_t next = 0;
    for (const auto &name : names) {
        for (const char *arch : archs) {
            std::vector<std::string> swaps{name, arch, "SWAPs"};
            std::vector<std::string> logical{name, arch, "LogicalCnots"};
            for (size_t j = 0; j < ws.size(); ++j) {
                const CompileStats &s = records[next++].second->stats;
                swaps.push_back(formatCount(s.swapCount));
                logical.push_back(formatCount(s.logicalCnots));
            }
            table.addRow(swaps);
            table.addRow(logical);
        }
    }
    table.print();
    return writeBenchJson("fig20", records, engine);
}
