#include "engine/stats.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/histogram.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/trace.hh"

namespace tetris
{

namespace
{

/** Dots to underscores: metric names as Prometheus label values are
 *  fine, but the sample names themselves must be [a-zA-Z0-9_:]. */
std::string
sanitize(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (!(('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
              ('0' <= c && c <= '9') || c == '_'))
            c = '_';
    }
    return out;
}

/** Exposition label-value escaping: backslash, quote, newline. */
std::string
escapeLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/**
 * Jobs dequeued by a worker but not yet finished. Deduplicated
 * submissions finish without ever starting, so the naive difference
 * can go negative; clamp for display.
 */
size_t
inFlight(size_t started, size_t finished)
{
    return started > finished ? started - finished : 0;
}

/**
 * Seconds since the longest-running in-flight job left the queue;
 * 0 when nothing is in flight. A scraper alerts on a stuck job with
 * a rule on this gauge.
 */
double
oldestInFlightSeconds(const Engine &engine)
{
    const uint64_t now_ns = steadyNowNs();
    uint64_t oldest_ns = now_ns;
    for (const auto &job : engine.activeJobs())
        oldest_ns = std::min(oldest_ns, job->startNs);
    return static_cast<double>(now_ns - oldest_ns) / 1e9;
}

void
typeLine(std::ostream &os, const std::string &family, const char *kind)
{
    os << "# TYPE " << family << " " << kind << "\n";
}

/**
 * One log2 histogram as a Prometheus histogram family: sparse
 * cumulative `_bucket{le="2^i-1"}` lines from a single read of the
 * bucket array, so the series is monotone and `_count` equals the
 * +Inf bucket even under concurrent recording. The top (overflow)
 * bucket only contributes to +Inf. `_max` and `_quantile` ride along
 * as separate gauge families (they are derived views, not part of
 * the histogram contract).
 */
void
renderHistogram(std::ostream &os, const std::string &base,
                const Histogram &hist)
{
    uint64_t counts[Histogram::kBuckets];
    uint64_t total = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
        counts[i] = hist.bucketCount(i);
        total += counts[i];
    }
    typeLine(os, base, "histogram");
    uint64_t cum = 0;
    for (int i = 0; i < Histogram::kBuckets - 1; ++i) {
        if (counts[i] == 0)
            continue;
        cum += counts[i];
        os << base << "_bucket{le=\"" << Histogram::bucketUpperBound(i)
           << "\"} " << cum << "\n";
    }
    os << base << "_bucket{le=\"+Inf\"} " << total << "\n";
    os << base << "_sum " << hist.sum() << "\n";
    os << base << "_count " << total << "\n";
    typeLine(os, base + "_max", "gauge");
    os << base << "_max " << hist.max() << "\n";
    typeLine(os, base + "_quantile", "gauge");
    os << base << "_quantile{quantile=\"0.5\"} "
       << hist.percentile(0.50) << "\n";
    os << base << "_quantile{quantile=\"0.9\"} "
       << hist.percentile(0.90) << "\n";
    os << base << "_quantile{quantile=\"0.99\"} "
       << hist.percentile(0.99) << "\n";
}

/** Nanoseconds as a human latency (summary line only). */
std::string
formatNsHuman(uint64_t ns)
{
    char buf[32];
    if (ns < 1000)
        std::snprintf(buf, sizeof(buf), "%lluns",
                      static_cast<unsigned long long>(ns));
    else if (ns < 1000000)
        std::snprintf(buf, sizeof(buf), "%.1fus",
                      static_cast<double>(ns) / 1e3);
    else if (ns < 1000000000)
        std::snprintf(buf, sizeof(buf), "%.1fms",
                      static_cast<double>(ns) / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.2fs",
                      static_cast<double>(ns) / 1e9);
    return buf;
}

} // namespace

std::string
formatStatsSnapshot(const Engine &engine)
{
    std::ostringstream os;
    os << "# tetris engine stats (Prometheus text exposition 0.0.4)\n";

    os << "# HELP tetris_up 1 while the engine is serving.\n";
    typeLine(os, "tetris_up", "gauge");
    os << "tetris_up 1\n";
    os << "# HELP tetris_draining 1 while Engine::drain() or "
          "teardown is waiting for workers.\n";
    typeLine(os, "tetris_draining", "gauge");
    os << "tetris_draining " << (engine.draining() ? 1 : 0) << "\n";
    typeLine(os, "tetris_uptime_seconds", "gauge");
    os << "tetris_uptime_seconds " << engine.uptimeSeconds() << "\n";

    const size_t submitted = engine.submittedCount();
    const size_t started = engine.startedCount();
    const size_t finished = engine.finishedCount();
    typeLine(os, "tetris_jobs_submitted", "counter");
    os << "tetris_jobs_submitted " << submitted << "\n";
    typeLine(os, "tetris_jobs_started", "counter");
    os << "tetris_jobs_started " << started << "\n";
    typeLine(os, "tetris_jobs_finished", "counter");
    os << "tetris_jobs_finished " << finished << "\n";
    typeLine(os, "tetris_jobs_in_flight", "gauge");
    os << "tetris_jobs_in_flight " << inFlight(started, finished)
       << "\n";
    typeLine(os, "tetris_jobs_queued", "gauge");
    os << "tetris_jobs_queued "
       << (submitted > started ? submitted - started : 0) << "\n";
    typeLine(os, "tetris_jobs_oldest_inflight_seconds", "gauge");
    os << "tetris_jobs_oldest_inflight_seconds "
       << oldestInFlightSeconds(engine) << "\n";
    typeLine(os, "tetris_threads", "gauge");
    os << "tetris_threads " << engine.numThreads() << "\n";

    const MetricsRegistry &metrics = engine.metrics();
    // The cache counters are read now, over the registry's copies: an
    // engine fed only by submit() (tetrisd, the stream compiler) never
    // calls Engine::syncCacheMetrics().
    auto counts = metrics.counts();
    for (const auto &[name, value] : engine.cacheCounters())
        counts[name] = value;
    os << "# HELP tetris_count Named engine counters "
          "(MetricsRegistry).\n";
    typeLine(os, "tetris_count", "counter");
    for (const auto &[name, value] : counts) {
        os << "tetris_count{name=\"" << escapeLabel(name) << "\"} "
           << value << "\n";
    }
    const auto timers = metrics.timers();
    if (!timers.empty()) {
        os << "# HELP tetris_seconds Accumulated engine timers in "
              "seconds (MetricsRegistry).\n";
        typeLine(os, "tetris_seconds", "counter");
        for (const auto &[name, value] : timers) {
            os << "tetris_seconds{name=\"" << escapeLabel(name)
               << "\"} " << value << "\n";
        }
    }
    metrics.forEachHistogram(
        [&os](const std::string &name, const Histogram &hist) {
            renderHistogram(os, "tetris_" + sanitize(name), hist);
        });
    return os.str();
}

std::string
formatSummary(const Engine &engine, double elapsed_seconds)
{
    const size_t submitted = engine.submittedCount();
    const size_t finished = engine.finishedCount();
    uint64_t p50 = 0, p99 = 0;
    const auto hists = engine.metrics().histogramSnapshots();
    if (auto it = hists.find("job.latency_ns"); it != hists.end()) {
        p50 = it->second.p50;
        p99 = it->second.p99;
    }
    const size_t hits = engine.cache().hits();
    const size_t lookups = hits + engine.cache().misses();

    std::ostringstream os;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2fs", elapsed_seconds);
    os << "stats: summary: " << finished << "/" << submitted
       << " jobs in " << buf;
    if (elapsed_seconds > 0.0) {
        std::snprintf(buf, sizeof(buf), "%.2f",
                      static_cast<double>(finished) / elapsed_seconds);
        os << " (" << buf << " jobs/s)";
    }
    os << ", job latency p50 " << formatNsHuman(p50) << " p99 "
       << formatNsHuman(p99) << ", cache " << hits << "/" << lookups
       << " hits";
    if (lookups > 0) {
        std::snprintf(buf, sizeof(buf), "%.1f%%",
                      100.0 * static_cast<double>(hits) /
                          static_cast<double>(lookups));
        os << " (" << buf << ")";
    }
    if (const DiskCache *disk = engine.diskCache()) {
        os << ", disk " << disk->hits() << " hit(s) / "
           << disk->writes() << " write(s)";
    }
    return os.str();
}

} // namespace tetris
