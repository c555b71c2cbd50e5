/**
 * @file
 * Regenerates Fig. 16: PH and Tetris compiled with and without the
 * peephole ("Qiskit O3") pass. The paper's observation: O3 recovers
 * a lot for PH (which delegates cancellation entirely), while
 * Tetris performs its own structural cancellation and gains less.
 * The 4 configurations x N molecules run as one engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 16: with/without peephole (Qiskit O3 stand-in)",
                "CNOT count and depth; JW encoder, heavy-hex 65q.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();

    PaulihedralOptions ph_raw;
    ph_raw.runPeephole = false;
    TetrisOptions tet_raw;
    tet_raw.runPeephole = false;

    const size_t stacks = 4; // ph-raw, ph, tetris-raw, tetris
    auto mols = benchMolecules();
    std::vector<CompileJob> jobs;
    for (const auto &spec : mols) {
        auto blocks = buildMolecule(spec, "jw");
        jobs.push_back(makeJob(spec.name + "/ph-raw", blocks, hw,
                               makePaulihedralPipeline(ph_raw)));
        jobs.push_back(makeJob(spec.name + "/ph+o3", blocks, hw,
                               makePaulihedralPipeline()));
        jobs.push_back(makeJob(spec.name + "/tetris-raw", blocks, hw,
                               makeTetrisPipeline(tet_raw)));
        jobs.push_back(makeJob(spec.name + "/tetris+o3",
                               std::move(blocks), hw,
                               makeTetrisPipeline()));
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Bench", "PH raw CNOT", "PH+O3 CNOT",
                        "Tetris raw CNOT", "Tetris+O3 CNOT",
                        "PH raw depth", "PH+O3 depth",
                        "Tetris raw depth", "Tetris+O3 depth"});
    for (size_t i = 0; i < mols.size(); ++i) {
        const auto *r = &records[stacks * i];
        table.addRow({mols[i].name,
                      formatCount(r[0].second->stats.cnotCount),
                      formatCount(r[1].second->stats.cnotCount),
                      formatCount(r[2].second->stats.cnotCount),
                      formatCount(r[3].second->stats.cnotCount),
                      formatCount(r[0].second->stats.depth),
                      formatCount(r[1].second->stats.depth),
                      formatCount(r[2].second->stats.depth),
                      formatCount(r[3].second->stats.depth)});
    }
    table.print();
    return writeBenchJson("fig16", records, engine);
}
