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
 * (gate counts are thread-count-invariant either way). A result
 * served from the disk tier carries no compile time (0.0), so run
 * it without TETRIS_CACHE_DIR.
 */

#include <cstdio>

#include "sweeps.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 24: compilation latency (seconds)",
                "Paper: Tetris's own pass costs more than PH's, but "
                "the end-to-end latency including O3 scales better "
                "because fewer gates reach the optimizer.");

    Engine &engine = benchEngine();
    std::printf("[engine: %d threads]\n", engine.numThreads());

    const Sweep sweep = fig16Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Bench", "PH", "PH+O3", "Tetris",
                        "Tetris+O3"});
    for (size_t i = 0; i < sweep.workloads.size(); ++i) {
        std::vector<std::string> row{sweep.workloads[i].part(1)};
        for (const Stack &s : sweep.stacks)
            row.push_back(formatDouble(run.stats(i, s.name).compileSeconds));
        table.addRow(row);
    }
    table.print();

    const MetricsRegistry &m = engine.metrics();
    std::printf("\nengine stage breakdown (wall seconds summed over "
                "all jobs): schedule %.3f, synthesis %.3f, "
                "peephole %.3f\n",
                m.seconds("compile.schedule"),
                m.seconds("compile.synthesis"),
                m.seconds("compile.peephole"));
    return writeBenchJson("fig24", run.records, engine);
}
