/**
 * @file
 * Regenerates Fig. 15: (a) the two T|Ket> proxy flavors (lookahead
 * O2 routing vs greedy Qiskit-O3-style routing); (b) the breakdown
 * of SWAP-induced versus logical CNOTs for PCOAST, PH, and Tetris.
 * Both panels compile as one parallel engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();
    auto mols = benchMolecules(2);
    if (mols.size() > 4)
        mols.resize(4);

    // Per molecule: tket-o2, tket-o3 (panel a); pcoast, ph, tetris
    // (panel b).
    const size_t stacks = 5;
    std::vector<CompileJob> jobs;
    for (const auto &spec : mols) {
        auto blocks = buildMolecule(spec, "jw");
        jobs.push_back(makeJob(spec.name + "/tket-o2", blocks, hw,
                               makeTketPipeline(TketFlavor::O2)));
        jobs.push_back(makeJob(spec.name + "/tket-o3", blocks, hw,
                               makeTketPipeline(TketFlavor::QiskitO3)));
        jobs.push_back(makeJob(spec.name + "/pcoast", blocks, hw,
                               makePcoastPipeline()));
        jobs.push_back(makeJob(spec.name + "/ph", blocks, hw,
                               makePaulihedralPipeline()));
        jobs.push_back(makeJob(spec.name + "/tetris", std::move(blocks),
                               hw, makeTetrisPipeline()));
    }

    auto records = runJobs(engine, std::move(jobs));

    printBanner("Fig. 15a: T|Ket> + TKet-O2 vs T|Ket> + Qiskit-O3",
                "Paper: the O2 flavor wins in all cases.");
    TablePrinter a({"Bench", "TKet+O2 CNOT", "TKet+QiskitO3 CNOT"});
    for (size_t i = 0; i < mols.size(); ++i) {
        const auto *r = &records[stacks * i];
        a.addRow({mols[i].name,
                  formatCount(r[0].second->stats.cnotCount),
                  formatCount(r[1].second->stats.cnotCount)});
    }
    a.print();

    printBanner("Fig. 15b: logical vs SWAP-induced CNOT breakdown",
                "Paper: PCOAST has the lowest logical count but by far "
                "the largest SWAP-induced CNOT fraction.");
    TablePrinter b({"Bench", "PCOAST logical", "PCOAST swaps",
                    "PH logical", "PH swaps", "Tetris logical",
                    "Tetris swaps"});
    for (size_t i = 0; i < mols.size(); ++i) {
        const auto *r = &records[stacks * i];
        b.addRow({mols[i].name,
                  formatCount(r[2].second->stats.logicalCnots),
                  formatCount(r[2].second->stats.swapCnots),
                  formatCount(r[3].second->stats.logicalCnots),
                  formatCount(r[3].second->stats.swapCnots),
                  formatCount(r[4].second->stats.logicalCnots),
                  formatCount(r[4].second->stats.swapCnots)});
    }
    b.print();
    return writeBenchJson("fig15", records, engine);
}
