/**
 * @file
 * Shared pieces of the end-to-end benchmark binary: run arguments,
 * the pinned engine configuration, raw-sample statistics, quality
 * sums, the benchmark's own span log, and the report every workload
 * fills in.
 *
 * The binary only calls public entry points of the system (Engine,
 * StreamCompiler, ServeServer/ServeClient, serialize, verify and the
 * chem/frontend generators). Everything it measures is measured from
 * outside those calls.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "engine/engine.hh"
#include "engine/trace.hh"

namespace perfbench
{

/**
 * Engine workers for every workload. The host is a few vCPUs shared
 * with other tenants, and a run's timings follow how many of its
 * threads want a vCPU at once: with three vCPUs kept busy by another
 * process, a 2-worker sweep round took 70% longer and a 1-worker round
 * no longer. At 4 workers the sweep's wall time spread 23% between
 * runs; at 2 workers it spread 23-29% on a busier host.
 */
inline constexpr int kWorkers = 1;

/** Mutex stripes of the memory cache (the nproc default here). */
inline constexpr int kCacheShards = 4;

/**
 * A run sets up at least kSetupReps times and for at least
 * kSetupSeconds in total; setup_s is the median. The stream's set-up
 * takes about 70 ms, and a median of five of those spread 34% between
 * runs.
 */
inline constexpr size_t kSetupReps = 5;
inline constexpr double kSetupSeconds = 1.0;

/** True while `setups` (seconds each) are too few for a median. */
bool moreSetups(const std::vector<double> &setups);

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** "full" for the recorded benchmark, "small" for the self-test. */
    std::string scale = "full";
    /** Directory inside the checkout that holds this run's files. */
    std::string workdir;

    bool small() const { return scale == "small"; }
};

/** One named value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports; main() prints it. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    /** Resolved configuration, printed beside the metrics. */
    std::vector<std::pair<std::string, std::string>> config;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** Human-readable lines (percentile sample counts, per round). */
    std::vector<std::string> notes;

    void fail(const std::string &why);
    void e2e(const std::string &name, double value, const char *unit);
    void layer(const std::string &name, double value, const char *unit);
    void note(const std::string &line);
    void setConfig(const std::string &key, const std::string &value);
};

/** steady_clock nanoseconds (the tracer's time base). */
inline uint64_t
nowNs()
{
    return tetris::steadyNowNs();
}

inline double
secondsBetween(uint64_t t0, uint64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e9;
}

/** Process user+sys CPU seconds so far. */
double processCpuSeconds();

/** Process peak resident set size in MB. */
double peakRssMb();

/** Median of a sample set (NaN when empty). */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile over raw samples: the value at rank
 * ceil(p * n), with `beyond` samples above that rank. Failed
 * requests enter as +infinity, so they rank above every success.
 */
struct Percentile
{
    double value = 0.0;
    size_t samples = 0;
    size_t beyond = 0;
};
Percentile percentile(std::vector<double> v, double p);

/** "p99 12.3 ms (n=5000, 50 beyond)" */
std::string describe(const char *label, const Percentile &p,
                     const char *unit);

/** Quality sums over compiled results, as the paper counts them. */
struct Quality
{
    uint64_t results = 0;
    uint64_t cnots = 0;
    uint64_t depth = 0;
    double durationDt = 0.0;
    uint64_t swaps = 0;
    uint64_t originalCnots = 0;
    uint64_t logicalCnots = 0;
    uint64_t insertedSwaps = 0;
    uint64_t bridgeNodes = 0;

    void add(const tetris::CompileStats &s);
    bool operator==(const Quality &o) const;
    bool operator!=(const Quality &o) const { return !(*this == o); }
    void report(Report &r) const;
};

/**
 * The benchmark's own spans: one per call it makes into a public
 * function while tracing. Kept in memory, written out at run end.
 * Thread-safe, so a call on any thread may record its span.
 */
class SpanLog
{
  public:
    static constexpr int64_t kNoParent = -1;

    bool enabled() const { return enabled_; }
    void enable() { enabled_ = true; }

    /** Open a span now; returns its id (kNoParent when disabled). */
    int64_t open(const char *name, int64_t parent, int run,
                 std::string job = {});
    /** Record a span whose interval is already known. */
    int64_t add(const char *name, int64_t parent, int run,
                uint64_t start_ns, uint64_t end_ns, std::string job = {});
    void close(int64_t id);

    /** JSON array of spans, timestamps in microseconds from epoch. */
    std::string toJson(uint64_t epoch_ns) const;

  private:
    struct Span
    {
        const char *name;
        int64_t parent;
        int run;
        uint64_t startNs;
        uint64_t endNs;
        std::string job;
    };

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Tracing state of one run: the benchmark's spans plus a private
 * engine Tracer, enabled together for the traced rounds only.
 */
struct Tracing
{
    SpanLog spans;
    tetris::Tracer engine;

    void enable();
    /**
     * Write {"spans", "engine"} to `path`: both sets of timestamps
     * are microseconds from the engine tracer's epoch.
     */
    bool write(const std::string &path) const;
};

/**
 * The pinned engine configuration: kWorkers threads, cache on,
 * verifier on, no scrape server, no watchdog, spans into `tracer`.
 */
tetris::EngineOptions engineOptions(tetris::Tracer *tracer);

/** Config lines shared by every workload. */
void reportEngineConfig(Report &r);

/**
 * Engine counters and exact histogram sums at one moment; the
 * difference of two snapshots is one measured window.
 */
struct EngineTotals
{
    uint64_t submitted = 0;
    uint64_t deduplicated = 0;
    uint64_t completed = 0;
    uint64_t verifyPass = 0;
    uint64_t verifyFail = 0;
    uint64_t verifySkipped = 0;
    uint64_t lockWaitNs = 0;
    double schedule = 0.0;
    double synthesis = 0.0;
    double peephole = 0.0;
    double compile = 0.0;
    double verify = 0.0;
    uint64_t latencyNs = 0;
    uint64_t queueWaitNs = 0;

    static EngineTotals read(tetris::Engine &engine);
    EngineTotals since(const EngineTotals &before) const;
};

/** The engine's per-layer metrics over one window of `wall` s. */
void reportEngineLayers(Report &r, const EngineTotals &delta,
                        double wall);

/**
 * Encodes and decodes every result it is given once, as a client
 * persisting the artifact would, under a "post" root span. report()
 * fills serialize.* and fails the run when an image does not
 * round-trip.
 */
class CodecMeter
{
  public:
    CodecMeter(Tracing &tracing, int run) : tracing_(tracing), run_(run) {}
    void add(const tetris::CompileResult &result);
    void report(Report &r);

  private:
    Tracing &tracing_;
    int run_;
    /** The "post" root, opened at the first add(). */
    int64_t root_ = SpanLog::kNoParent;
    bool opened_ = false;
    double encodeSeconds_ = 0.0;
    double decodeSeconds_ = 0.0;
    uint64_t bytes_ = 0;
    uint64_t count_ = 0;
    uint64_t mismatches_ = 0;
};

/** Zero-valued defaults for every per-layer metric. */
void declareLayers(Report &r);

/** core.cancel_ratio, core.inserted_swaps, core.bridge_nodes. */
void reportQualityLayers(Report &r, const Quality &q);

/** A fresh directory under `parent`; removed by the destructor. */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent, const std::string &tag);
    ~TempDir();
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Derive an independent 64-bit seed from (seed, stream, index). */
uint64_t mixSeed(uint64_t seed, uint64_t stream, uint64_t index);

/** Workload entry points. */
void runSweep(const Args &args, Report &r, Tracing &tracing);
void runStream(const Args &args, Report &r, Tracing &tracing);
void runServe(const Args &args, Report &r, Tracing &tracing);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
