/**
 * @file
 * Regenerates Fig. 24: compilation time scalability. Reports the
 * synthesis-only time (no peephole) and the full pipeline time for
 * PH and Tetris across the molecule suite, plus the engine's
 * aggregate per-stage breakdown (schedule/synthesis/peephole).
 *
 * The 4 configurations x N molecules run through the batch engine.
 * Per-job compileSeconds is wall time measured inside each compile
 * call, so with TETRIS_ENGINE_THREADS > 1 concurrent jobs contend
 * for cores and inflate each other's numbers; run with
 * TETRIS_ENGINE_THREADS=1 for paper-faithful uncontended latencies
 * (gate counts are thread-count-invariant either way).
 */

#include <cstdio>

#include "bench_util.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 24: compilation latency (seconds)",
                "Paper: Tetris's own pass costs more than PH's, but "
                "the end-to-end latency including O3 scales better "
                "because fewer gates reach the optimizer.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();
    std::printf("[engine: %d threads]\n", engine.numThreads());

    PaulihedralOptions ph_raw;
    ph_raw.runPeephole = false;
    TetrisOptions tet_raw;
    tet_raw.runPeephole = false;

    auto specs = benchMolecules();
    std::vector<CompileJob> jobs;
    for (const auto &spec : specs) {
        auto blocks = buildMolecule(spec, "jw");
        // Per molecule: PH raw, PH+O3, Tetris raw, Tetris+O3.
        jobs.push_back(makeJob(spec.name + "/ph", blocks, hw,
                               makePaulihedralPipeline(ph_raw)));
        jobs.push_back(makeJob(spec.name + "/ph+o3", blocks, hw,
                               makePaulihedralPipeline()));
        jobs.push_back(makeJob(spec.name + "/tetris", blocks, hw,
                               makeTetrisPipeline(tet_raw)));
        jobs.push_back(makeJob(spec.name + "/tetris+o3",
                               std::move(blocks), hw,
                               makeTetrisPipeline()));
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Bench", "PH", "PH+O3", "Tetris",
                        "Tetris+O3"});
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto *r = &records[4 * i];
        table.addRow({specs[i].name,
                      formatDouble(r[0].second->stats.compileSeconds),
                      formatDouble(r[1].second->stats.compileSeconds),
                      formatDouble(r[2].second->stats.compileSeconds),
                      formatDouble(r[3].second->stats.compileSeconds)});
    }
    table.print();

    const MetricsRegistry &m = engine.metrics();
    std::printf("\nengine stage breakdown (wall seconds summed over "
                "all jobs): schedule %.3f, synthesis %.3f, "
                "peephole %.3f\n",
                m.seconds("compile.schedule"),
                m.seconds("compile.synthesis"),
                m.seconds("compile.peephole"));
    return writeBenchJson("fig24", records, engine);
}
