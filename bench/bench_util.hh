/**
 * @file
 * Shared helpers for the benchmark harness.
 *
 * Every table and figure binary in bench/ regenerates one table or
 * figure of the paper and prints the corresponding rows (plus, where
 * available, the paper's published values for side-by-side
 * comparison). Its jobs are one sweep of bench/sweeps.hh, where
 * every figure's workloads and compiler stacks are declared once;
 * TETRIS_BENCH_QUICK=1 selects each sweep's smaller quick set for
 * fast smoke runs.
 *
 * The sweeps run through the shared batch engine (benchEngine()) so
 * they parallelize across TETRIS_ENGINE_THREADS workers, and each
 * binary drops a machine-readable BENCH_<artifact>.json via
 * writeBenchJson(). Every bench binary writes that file through
 * writeBenchFile(), so all of them share one layout (see there).
 *
 * When TETRIS_CACHE_DIR is set the engine also opens the persistent
 * compile-artifact store (engine/disk_cache.hh), so a repeated run
 * of the same binary deserializes its results instead of
 * recompiling; the engine's jobs.disk_hits and cache.disk.* counters
 * report that traffic.
 *
 * TETRIS_VERIFY=1 turns on the semantic equivalence verifier
 * (verify/verify.hh) for every result -- fresh compilations and
 * deserialized artifacts alike -- counted as verify.pass / fail /
 * skipped in the engine section. A sweep then exits 1 when any job
 * failed verification or none passed (see writeBenchJson()).
 *
 * Ctrl-C during a sweep cancels every job still queued
 * (Engine::cancelPending) instead of killing the process: the binary
 * finishes with `cancelled` placeholder rows, still writes its
 * partial BENCH_*.json, and a second Ctrl-C terminates normally.
 */

#ifndef TETRIS_BENCH_BENCH_UTIL_HH
#define TETRIS_BENCH_BENCH_UTIL_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chem/uccsd.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "core/pipeline_adapters.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "pauli/pauli_block.hh"

namespace tetris::bench
{

/** The TETRIS_BENCH_QUICK flag (default off). */
bool quickMode();

/** The TETRIS_VERIFY flag (default off). */
bool verifyEnabled();

/** Print a section banner naming the paper artifact being rebuilt. */
void printBanner(const std::string &title, const std::string &note);

/** Percentage improvement of b over a: (a-b)/a. */
double improvement(double a, double b);

/**
 * The process-wide batch engine all bench sweeps submit to. Prints a
 * "[done/total] name" progress line per finished job to stderr when
 * it is a terminal; TETRIS_BENCH_PROGRESS=1/0 forces it on/off.
 */
Engine &benchEngine();

/** Wrap a device for sharing across many CompileJobs. */
std::shared_ptr<const CouplingGraph> shareDevice(CouplingGraph hw);

/** Assemble a CompileJob (null pipeline = default Tetris). */
CompileJob makeJob(std::string name, std::vector<PauliBlock> blocks,
                   std::shared_ptr<const CouplingGraph> hw,
                   PipelinePtr pipeline = nullptr);

/** One named result row of a finished sweep (see runSweep()). */
using BenchRecord =
    std::pair<std::string, std::shared_ptr<const CompileResult>>;

/**
 * Write BENCH_<artifact>.json in the working directory, in the one
 * layout every bench binary shares:
 *
 *   {"schema": "bench-v3", "artifact": "<artifact>",
 *    "config": {every setting that produced the file},
 *    "rows": [{"name": ..., measured fields}, ...],
 *    "engine": MetricsRegistry::writeJson}
 *
 * `config` writes the members of the config object and `rows` one
 * object per measured item, each starting with its "name"; neither
 * the set of rows nor their names may depend on the machine, and no
 * two rows may share a name (a repeat is fatal: exit 1, nothing
 * written). "engine" is present when `engine` is non-null. scripts/
 * bench_diff.py compares two such files. Returns the path written,
 * or "" on failure.
 */
std::string writeBenchFile(const std::string &artifact,
                           const std::function<void(JsonWriter &)> &config,
                           const std::function<void(JsonWriter &)> &rows,
                           const Engine *engine);

/**
 * writeBenchFile() for a table/fig sweep: one row per job (its
 * `cancelled` flag and CompileStats) and the engine's metrics,
 * published after drain() so write-behind persists are counted.
 * Returns the sweep's exit status, once the file is written: 1 when
 * the verifier is on and any job failed it or none passed (said on
 * stderr), else 0.
 */
int writeBenchJson(const std::string &artifact,
                   const std::vector<BenchRecord> &records,
                   Engine &engine);

} // namespace tetris::bench

#endif // TETRIS_BENCH_BENCH_UTIL_HH
