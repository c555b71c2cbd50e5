/**
 * @file
 * Engine stats as text: the /metrics exposition and the end-of-sweep
 * summary line.
 *
 * formatStatsSnapshot() renders the live engine state as a full
 * Prometheus text exposition 0.0.4 document: # TYPE'd counter and
 * gauge families, and every MetricsRegistry log2 histogram as
 * cumulative `_bucket{le="..."}` / `_sum` / `_count` series (plus
 * `_max` and `_quantile` gauge companions). It is the body the obs
 * scrape server (obs/obs_server.hh) serves from GET /metrics, so a
 * long sweep is observed by scraping it: submitted, started,
 * finished, in-flight and queued jobs, the age of the oldest
 * in-flight job, the cache.* counters (Engine::cacheCounters) and
 * uptime are all gauges or counters there, read from the engine at
 * scrape time.
 *
 * formatSummary() is the one line bench::runJobs prints on stderr
 * after every sweep: throughput, job-latency p50/p99, and cache hit
 * rates.
 */

#ifndef TETRIS_ENGINE_STATS_HH
#define TETRIS_ENGINE_STATS_HH

#include <string>

namespace tetris
{

class Engine;

/**
 * Render the engine's live counters, timers, and histograms as a
 * Prometheus text exposition 0.0.4 document: `tetris_jobs_submitted
 * 40`, `tetris_count{name="jobs.completed"} 40`,
 * `tetris_job_latency_ns_bucket{le="1023"} 7`, ... Histogram
 * `_count` is computed from the same one-shot bucket read as the
 * cumulative series, so `_count` always equals the +Inf bucket even
 * while workers are recording.
 */
std::string formatStatsSnapshot(const Engine &engine);

/**
 * The end-of-run summary line (without trailing newline): jobs
 * finished, wall time, throughput, job-latency p50/p99, and the
 * in-memory/disk cache hit rates.
 */
std::string formatSummary(const Engine &engine, double elapsed_seconds);

} // namespace tetris

#endif // TETRIS_ENGINE_STATS_HH
