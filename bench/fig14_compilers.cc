/**
 * @file
 * Regenerates Fig. 14: CNOT gate count across full compiler stacks
 * -- T|Ket> proxy, PCOAST proxy, Paulihedral, Tetris with the
 * PH-style scheduler, and Tetris with the lookahead scheduler
 * (K=10) -- on LiH..MgH2 (JW, heavy-hex), mirroring the paper's
 * molecule subset (T|Ket> timed out beyond MgH2 in the paper).
 * All five stacks per molecule run as one parallel engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 14: compiler comparison (CNOT count, JW, heavy-hex)",
                "Expected ordering: TKet >> PCOAST > PH > Tetris > "
                "Tetris+lookahead.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();

    auto mols = benchMolecules(2);
    if (mols.size() > 4)
        mols.resize(4); // LiH..MgH2 as in the paper

    TetrisOptions ph_sched;
    ph_sched.scheduler = SchedulerKind::Lexicographic;
    TetrisOptions look;
    look.scheduler = SchedulerKind::Lookahead;
    look.lookaheadK = 10;

    // Five stacks per molecule, in table-column order.
    const size_t stacks = 5;
    std::vector<CompileJob> jobs;
    for (const auto &spec : mols) {
        auto blocks = buildMolecule(spec, "jw");
        jobs.push_back(makeJob(spec.name + "/tket-o2", blocks, hw,
                               makeTketPipeline(TketFlavor::O2)));
        jobs.push_back(makeJob(spec.name + "/pcoast", blocks, hw,
                               makePcoastPipeline()));
        jobs.push_back(makeJob(spec.name + "/ph", blocks, hw,
                               makePaulihedralPipeline()));
        jobs.push_back(makeJob(spec.name + "/tetris-lex", blocks, hw,
                               makeTetrisPipeline(ph_sched)));
        jobs.push_back(makeJob(spec.name + "/tetris-lookahead",
                               std::move(blocks), hw,
                               makeTetrisPipeline(look)));
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Bench", "TKet", "PCOAST", "PH", "Tetris",
                        "Tetris+lookahead"});
    for (size_t i = 0; i < mols.size(); ++i) {
        const auto *r = &records[stacks * i];
        table.addRow({mols[i].name,
                      formatCount(r[0].second->stats.cnotCount),
                      formatCount(r[1].second->stats.cnotCount),
                      formatCount(r[2].second->stats.cnotCount),
                      formatCount(r[3].second->stats.cnotCount),
                      formatCount(r[4].second->stats.cnotCount)});
    }
    table.print();
    return writeBenchJson("fig14", records, engine);
}
