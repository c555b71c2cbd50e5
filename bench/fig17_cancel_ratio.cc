/**
 * @file
 * Regenerates Fig. 17: the logical-CNOT cancellation ratio achieved
 * by PH, Tetris, and the max-cancel logical circuit, for both
 * encoders. Expected ordering: PH <= Tetris <= max_cancel, with
 * Tetris close to the max_cancel bound and scaling with size. The
 * bound is the "max-cancel" pipeline unrouted with logical peephole
 * (no hardware constraint); all three run as one engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 17: logical CNOT cancellation ratio",
                "max_cancel = single-leaf-tree logical circuit + "
                "peephole (no hardware constraint).");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();

    MaxCancelOptions bound;
    bound.route = false;
    bound.logicalPeephole = true;

    const size_t stacks = 3; // ph, tetris, max-cancel bound
    std::vector<CompileJob> jobs;
    for (const char *enc : {"jw", "bk"}) {
        for (const auto &spec : benchMolecules()) {
            auto blocks = buildMolecule(spec, enc);
            std::string base = std::string(enc) + "/" + spec.name;
            jobs.push_back(makeJob(base + "/ph", blocks, hw,
                                   makePaulihedralPipeline()));
            jobs.push_back(makeJob(base + "/tetris", blocks, hw,
                                   makeTetrisPipeline()));
            jobs.push_back(makeJob(base + "/max-cancel",
                                   std::move(blocks), hw,
                                   makeMaxCancelPipeline(bound)));
        }
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table(
        {"Encoder", "Bench", "PH", "Tetris", "max_cancel"});
    size_t row = 0;
    for (const char *enc : {"jw", "bk"}) {
        for (const auto &spec : benchMolecules()) {
            const auto *r = &records[stacks * row++];
            table.addRow(
                {enc, spec.name,
                 formatPercent(r[0].second->stats.cancelRatio),
                 formatPercent(r[1].second->stats.cancelRatio),
                 formatPercent(r[2].second->stats.cancelRatio)});
        }
    }
    table.print();
    return writeBenchJson("fig17", records, engine);
}
