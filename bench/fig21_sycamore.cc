/**
 * @file
 * Regenerates Fig. 21: PH vs Tetris on the Google-Sycamore-like
 * 64-qubit backend (JW): depth and total CNOT count with the
 * SWAP-induced breakdown. Compiled as one parallel engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 21: Sycamore backend (JW)",
                "Paper: depth improvement -18.1..-47.8%, CNOT "
                "improvement -25.5..-42.3%.");

    auto hw = shareDevice(googleSycamore64());
    Engine &engine = benchEngine();

    const size_t stacks = 2; // ph, tetris
    auto mols = benchMolecules();
    std::vector<CompileJob> jobs;
    for (const auto &spec : mols) {
        auto blocks = buildMolecule(spec, "jw");
        jobs.push_back(makeJob(spec.name + "/ph", blocks, hw,
                               makePaulihedralPipeline()));
        jobs.push_back(makeJob(spec.name + "/tetris", std::move(blocks),
                               hw, makeTetrisPipeline()));
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Bench", "PH depth", "Tet depth", "Depth%",
                        "PH CNOT", "Tet CNOT", "CNOT%", "PH_S",
                        "Tetris_S"});
    for (size_t i = 0; i < mols.size(); ++i) {
        const CompileStats &ph = records[stacks * i].second->stats;
        const CompileStats &tet =
            records[stacks * i + 1].second->stats;
        table.addRow({
            mols[i].name,
            formatCount(ph.depth),
            formatCount(tet.depth),
            formatPercent(-improvement(ph.depth, tet.depth)),
            formatCount(ph.cnotCount),
            formatCount(tet.cnotCount),
            formatPercent(-improvement(ph.cnotCount, tet.cnotCount)),
            formatCount(ph.swapCnots),
            formatCount(tet.swapCnots),
        });
    }
    table.print();
    return writeBenchJson("fig21", records, engine);
}
