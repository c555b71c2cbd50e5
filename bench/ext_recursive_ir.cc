/**
 * @file
 * Extension ablation (beyond the paper's evaluation): the effect of
 * within-block string reordering -- the enabling step of
 * Tetris-IR-recursive, which the paper lists as future work -- on
 * the final CNOT count, for both encoders. Valid for UCCSD blocks
 * because all strings of an excitation block mutually commute.
 * Both variants compile as one parallel engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Extension: Tetris-IR-recursive string reordering",
                "CNOT counts with and without greedy consecutive-"
                "similarity reordering inside each block.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();

    TetrisOptions no_reorder;
    no_reorder.reorderStringsInBlock = false;
    TetrisOptions reorder;
    reorder.reorderStringsInBlock = true;

    const size_t stacks = 2;
    std::vector<CompileJob> jobs;
    for (const char *enc : {"jw", "bk"}) {
        for (const auto &spec : benchMolecules()) {
            auto blocks = buildMolecule(spec, enc);
            std::string base = std::string(enc) + "/" + spec.name;
            jobs.push_back(makeJob(base + "/tetris", blocks, hw,
                                   makeTetrisPipeline(no_reorder)));
            jobs.push_back(makeJob(base + "/tetris+reorder",
                                   std::move(blocks), hw,
                                   makeTetrisPipeline(reorder)));
        }
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Encoder", "Bench", "Tetris", "Tetris+reorder",
                        "Delta"});
    size_t row = 0;
    for (const char *enc : {"jw", "bk"}) {
        for (const auto &spec : benchMolecules()) {
            const auto *r = &records[stacks * row++];
            const CompileStats &base = r[0].second->stats;
            const CompileStats &reordered = r[1].second->stats;
            table.addRow({enc, spec.name,
                          formatCount(base.cnotCount),
                          formatCount(reordered.cnotCount),
                          formatPercent(-improvement(
                              base.cnotCount, reordered.cnotCount))});
        }
    }
    table.print();
    return writeBenchJson("ext_recursive", records, engine);
}
