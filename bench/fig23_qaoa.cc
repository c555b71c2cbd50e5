/**
 * @file
 * Regenerates Fig. 23: QAOA benchmarks. Gate count and depth of the
 * 2QAN proxy and Tetris (bridging + qubit reuse), normalized to
 * Paulihedral; five random graph instances per benchmark, averaged.
 * All (instance, pipeline) pairs compile as one engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"
#include "qaoa/qaoa.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 23: QAOA (normalized to Paulihedral; lower is "
                "better)",
                "Paper: Tetris averages -66.5% depth / -60.6% gates "
                "vs PH and beats 2QAN by 15-20%.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();
    const int seeds = quickMode() ? 2 : 5;

    const size_t stacks = 3; // ph, 2qan, qaoa-bridge
    std::vector<CompileJob> jobs;
    for (const auto &spec : qaoaBenchmarks()) {
        for (int s = 0; s < seeds; ++s) {
            Graph g = buildQaoaGraph(spec, 100 + s);
            auto blocks = buildQaoaCostBlocks(g, 0.35);
            std::string base =
                spec.name + "/s=" + std::to_string(s);
            jobs.push_back(makeJob(base + "/ph", blocks, hw,
                                   makePaulihedralPipeline()));
            jobs.push_back(makeJob(base + "/2qan", blocks, hw,
                                   makeQaoa2qanPipeline()));
            jobs.push_back(makeJob(base + "/tetris",
                                   std::move(blocks), hw,
                                   makeQaoaBridgePipeline()));
        }
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Bench", "2QAN/PH gates", "Tetris/PH gates",
                        "2QAN/PH depth", "Tetris/PH depth"});
    size_t next = 0;
    for (const auto &spec : qaoaBenchmarks()) {
        double qg = 0, tg = 0, qd = 0, td = 0;
        for (int s = 0; s < seeds; ++s) {
            const CompileStats &ph = records[next].second->stats;
            const CompileStats &qan =
                records[next + 1].second->stats;
            const CompileStats &tet =
                records[next + 2].second->stats;
            next += stacks;
            qg += static_cast<double>(qan.cnotCount) / ph.cnotCount;
            tg += static_cast<double>(tet.cnotCount) / ph.cnotCount;
            qd += static_cast<double>(qan.depth) / ph.depth;
            td += static_cast<double>(tet.depth) / ph.depth;
        }
        table.addRow({spec.name, formatDouble(qg / seeds),
                      formatDouble(tg / seeds), formatDouble(qd / seeds),
                      formatDouble(td / seeds)});
    }
    table.print();
    return writeBenchJson("fig23", records, engine);
}
