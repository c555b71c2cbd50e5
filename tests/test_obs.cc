/**
 * @file
 * Observability-plane tests: strict Prometheus text-exposition
 * parsing of /metrics (name/label grammar, monotone cumulative
 * histogram buckets ending in le="+Inf", _count == +Inf bucket,
 * counter monotonicity across two consecutive scrapes of a live
 * engine), the embedded HTTP server's endpoints (/metrics /healthz
 * /statusz, 404s, draining flip during Engine::drain), the
 * structured JSONL event log (arming, job lifecycle records,
 * size-based rotation, the warn+ logger tee), scrape-time gauges
 * against an artificially slow test-only pipeline, and
 * scrape-under-load (the TSan job runs this suite).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "chem/uccsd.hh"
#include "common/histogram.hh"
#include "common/log.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/stats.hh"
#include "hardware/topologies.hh"
#include "obs/event_log.hh"
#include "obs/obs_server.hh"

namespace tetris
{
namespace
{

// ---------------------------------------------------------------
// Strict Prometheus text exposition 0.0.4 parser (test-only).
// ---------------------------------------------------------------

struct PromSample
{
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0.0;
};

struct PromDoc
{
    /** family -> counter | gauge | histogram (from # TYPE lines). */
    std::map<std::string, std::string> types;
    std::vector<PromSample> samples;
};

bool
validMetricName(const std::string &s)
{
    if (s.empty())
        return false;
    auto first = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':';
    };
    auto rest = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':';
    };
    if (!first(s[0]))
        return false;
    for (size_t i = 1; i < s.size(); ++i)
        if (!rest(s[i]))
            return false;
    return true;
}

bool
validLabelName(const std::string &s)
{
    if (s.empty())
        return false;
    auto first = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    auto rest = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    if (!first(s[0]))
        return false;
    for (size_t i = 1; i < s.size(); ++i)
        if (!rest(s[i]))
            return false;
    return true;
}

/**
 * Parse one exposition document, failing the test (via `error`) on
 * any grammar violation: bad metric/label names, malformed label
 * blocks, unparsable values, TYPE lines for already-typed families.
 */
bool
parseExposition(const std::string &body, PromDoc &doc,
                std::string &error)
{
    std::istringstream in(body);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto fail = [&](const std::string &why) {
            error = "line " + std::to_string(lineno) + ": " + why +
                    ": '" + line + "'";
            return false;
        };
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream cs(line);
            std::string hash, kind, family, type;
            cs >> hash >> kind;
            if (kind == "TYPE") {
                if (!(cs >> family >> type))
                    return fail("malformed TYPE line");
                if (!validMetricName(family))
                    return fail("bad family name in TYPE");
                if (type != "counter" && type != "gauge" &&
                    type != "histogram" && type != "summary" &&
                    type != "untyped")
                    return fail("unknown TYPE kind");
                if (doc.types.count(family))
                    return fail("duplicate TYPE for family");
                doc.types[family] = type;
            } else if (kind == "HELP") {
                if (!(cs >> family))
                    return fail("malformed HELP line");
                if (!validMetricName(family))
                    return fail("bad family name in HELP");
            }
            // Other comments are legal and ignored.
            continue;
        }
        PromSample sample;
        size_t pos = 0;
        while (pos < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[pos])) ||
                line[pos] == '_' || line[pos] == ':'))
            ++pos;
        sample.name = line.substr(0, pos);
        if (!validMetricName(sample.name))
            return fail("bad metric name");
        if (pos < line.size() && line[pos] == '{') {
            const size_t close = line.find('}', pos);
            if (close == std::string::npos)
                return fail("unterminated label block");
            std::string block = line.substr(pos + 1, close - pos - 1);
            size_t b = 0;
            while (b < block.size()) {
                const size_t eq = block.find('=', b);
                if (eq == std::string::npos)
                    return fail("label without '='");
                const std::string lname = block.substr(b, eq - b);
                if (!validLabelName(lname))
                    return fail("bad label name '" + lname + "'");
                if (eq + 1 >= block.size() || block[eq + 1] != '"')
                    return fail("label value not quoted");
                std::string lvalue;
                size_t v = eq + 2;
                bool closed = false;
                for (; v < block.size(); ++v) {
                    if (block[v] == '\\') {
                        if (v + 1 >= block.size())
                            return fail("dangling escape");
                        char esc = block[v + 1];
                        if (esc == '\\')
                            lvalue += '\\';
                        else if (esc == '"')
                            lvalue += '"';
                        else if (esc == 'n')
                            lvalue += '\n';
                        else
                            return fail("bad escape in label value");
                        ++v;
                    } else if (block[v] == '"') {
                        closed = true;
                        break;
                    } else {
                        lvalue += block[v];
                    }
                }
                if (!closed)
                    return fail("unterminated label value");
                sample.labels[lname] = lvalue;
                b = v + 1;
                if (b < block.size()) {
                    if (block[b] != ',')
                        return fail("labels not comma-separated");
                    ++b;
                }
            }
            pos = close + 1;
        }
        if (pos >= line.size() || line[pos] != ' ')
            return fail("missing space before value");
        const std::string value_str = line.substr(pos + 1);
        if (value_str.empty())
            return fail("missing value");
        if (value_str == "+Inf") {
            sample.value = std::numeric_limits<double>::infinity();
        } else {
            char *end = nullptr;
            sample.value = std::strtod(value_str.c_str(), &end);
            if (end == value_str.c_str() || *end != '\0')
                return fail("unparsable value '" + value_str + "'");
        }
        doc.samples.push_back(std::move(sample));
    }
    return true;
}

/** The value of sample `name` with exactly `labels`; NaN when it is
 *  absent. */
double
sampleValue(const PromDoc &doc, const std::string &name,
            const std::map<std::string, std::string> &labels = {})
{
    for (const auto &s : doc.samples)
        if (s.name == name && s.labels == labels)
            return s.value;
    return std::numeric_limits<double>::quiet_NaN();
}

/** Family of a sample name (strips histogram suffixes). */
std::string
familyOf(const PromSample &s, const PromDoc &doc)
{
    for (const char *suffix : {"_bucket", "_sum", "_count"}) {
        const std::string suf(suffix);
        if (s.name.size() > suf.size() &&
            s.name.compare(s.name.size() - suf.size(), suf.size(),
                           suf) == 0) {
            const std::string base =
                s.name.substr(0, s.name.size() - suf.size());
            auto it = doc.types.find(base);
            if (it != doc.types.end() && it->second == "histogram")
                return base;
        }
    }
    return s.name;
}

std::string
sampleKey(const PromSample &s)
{
    std::string key = s.name;
    for (const auto &[k, v] : s.labels)
        key += "|" + k + "=" + v;
    return key;
}

/**
 * Assert every histogram family's contract: cumulative buckets in
 * ascending le order, monotone non-decreasing, ending in le="+Inf",
 * with _count equal to the +Inf bucket and a _sum present.
 */
void
checkHistograms(const PromDoc &doc)
{
    for (const auto &[family, type] : doc.types) {
        if (type != "histogram")
            continue;
        double last_le = -1.0;
        double last_cum = -1.0;
        double inf_value = -1.0;
        bool saw_inf = false, saw_sum = false, saw_count = false;
        double count_value = -1.0;
        size_t buckets = 0;
        for (const auto &s : doc.samples) {
            if (s.name == family + "_bucket") {
                ++buckets;
                auto le = s.labels.find("le");
                ASSERT_NE(le, s.labels.end())
                    << family << " bucket without le";
                EXPECT_FALSE(saw_inf)
                    << family << ": bucket after le=\"+Inf\"";
                double le_val;
                if (le->second == "+Inf") {
                    saw_inf = true;
                    inf_value = s.value;
                    le_val = std::numeric_limits<double>::infinity();
                } else {
                    le_val = std::stod(le->second);
                }
                EXPECT_GT(le_val, last_le)
                    << family << ": le not strictly ascending";
                last_le = le_val;
                EXPECT_GE(s.value, last_cum)
                    << family << ": cumulative bucket decreased";
                last_cum = s.value;
            } else if (s.name == family + "_sum") {
                saw_sum = true;
            } else if (s.name == family + "_count") {
                saw_count = true;
                count_value = s.value;
            }
        }
        ASSERT_GT(buckets, 0u) << family << ": no buckets";
        EXPECT_TRUE(saw_inf) << family << ": missing le=\"+Inf\"";
        EXPECT_TRUE(saw_sum) << family << ": missing _sum";
        ASSERT_TRUE(saw_count) << family << ": missing _count";
        EXPECT_EQ(count_value, inf_value)
            << family << ": _count != +Inf bucket";
    }
}

// ---------------------------------------------------------------
// Fixtures and helpers.
// ---------------------------------------------------------------

std::vector<CompileJob>
smallJobs(int count = 4)
{
    auto hw = std::make_shared<const CouplingGraph>(gridTopology(3, 3));
    std::vector<CompileJob> jobs;
    for (int i = 0; i < count; ++i) {
        CompileJob job;
        job.name = "obs" + std::to_string(i);
        job.blocks = buildSyntheticUcc(6, 100 + i);
        job.hw = hw;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** Test-only pipeline: sleeps, then returns an empty result. */
class SlowPipeline : public Pipeline
{
  public:
    explicit SlowPipeline(int sleep_ms) : sleepMs_(sleep_ms) {}

    const std::string &name() const override
    {
        static const std::string n = "slow-test";
        return n;
    }

    CompileResult run(const std::vector<PauliBlock> &,
                      const CouplingGraph &) const override
    {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(sleepMs_));
        return CompileResult{};
    }

    uint64_t optionsHash() const override
    {
        return 0x510bull + static_cast<uint64_t>(sleepMs_);
    }

  private:
    int sleepMs_;
};

CompileJob
slowJob(const std::string &name, int sleep_ms)
{
    CompileJob job;
    job.name = name;
    job.blocks = buildSyntheticUcc(4, 7);
    job.hw = std::make_shared<const CouplingGraph>(gridTopology(2, 2));
    job.pipeline = std::make_shared<SlowPipeline>(sleep_ms);
    return job;
}

std::string
tempPath(const std::string &tag)
{
    return testing::TempDir() + "tetris_obs_" + tag + "_" +
           std::to_string(::getpid()) + ".jsonl";
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

bool
anyLineContains(const std::vector<std::string> &lines,
                const std::string &needle)
{
    for (const auto &l : lines)
        if (l.find(needle) != std::string::npos)
            return true;
    return false;
}

// ---------------------------------------------------------------
// Exposition format.
// ---------------------------------------------------------------

TEST(ObsExposition, StrictGrammarOnLiveEngine)
{
    Engine engine;
    engine.compileAll(smallJobs());
    const std::string body = formatStatsSnapshot(engine);

    PromDoc doc;
    std::string error;
    ASSERT_TRUE(parseExposition(body, doc, error)) << error;
    ASSERT_FALSE(doc.samples.empty());

    // Every sample belongs to a TYPE'd family.
    for (const auto &s : doc.samples) {
        EXPECT_TRUE(doc.types.count(familyOf(s, doc)))
            << "sample without TYPE: " << s.name;
    }
    checkHistograms(doc);

    // The headline families are present with the expected kinds.
    EXPECT_EQ(doc.types["tetris_jobs_submitted"], "counter");
    EXPECT_EQ(doc.types["tetris_jobs_in_flight"], "gauge");
    EXPECT_EQ(doc.types["tetris_draining"], "gauge");
    EXPECT_EQ(doc.types["tetris_count"], "counter");
    EXPECT_EQ(doc.types["tetris_job_latency_ns"], "histogram");
}

TEST(ObsExposition, HistogramAgreesBucketForBucketWithRegistry)
{
    Engine engine;
    engine.compileAll(smallJobs());
    const std::string body = formatStatsSnapshot(engine);

    PromDoc doc;
    std::string error;
    ASSERT_TRUE(parseExposition(body, doc, error)) << error;

    // Rebuild the expected cumulative series from the registry's raw
    // buckets — the same array MetricsRegistry::writeJson() emits
    // into BENCH_*.json — and demand exact agreement.
    const Histogram &hist = engine.metrics().histogram("job.latency_ns");
    std::vector<std::pair<double, double>> expected; // (le, cum)
    uint64_t cum = 0;
    for (int i = 0; i < Histogram::kBuckets - 1; ++i) {
        const uint64_t n = hist.bucketCount(i);
        if (n == 0)
            continue;
        cum += n;
        expected.emplace_back(
            static_cast<double>(Histogram::bucketUpperBound(i)),
            static_cast<double>(cum));
    }
    expected.emplace_back(std::numeric_limits<double>::infinity(),
                          static_cast<double>(hist.count()));

    std::vector<std::pair<double, double>> actual;
    for (const auto &s : doc.samples) {
        if (s.name != "tetris_job_latency_ns_bucket")
            continue;
        const std::string &le = s.labels.at("le");
        actual.emplace_back(
            le == "+Inf" ? std::numeric_limits<double>::infinity()
                         : std::stod(le),
            s.value);
    }
    EXPECT_EQ(actual, expected);
}

TEST(ObsExposition, LabelValuesEscaped)
{
    Engine engine;
    engine.metrics().addCount("weird\"na\\me\nx", 3);
    PromDoc doc;
    std::string error;
    ASSERT_TRUE(parseExposition(formatStatsSnapshot(engine), doc,
                                error))
        << error;
    bool found = false;
    for (const auto &s : doc.samples) {
        if (s.name == "tetris_count" && s.labels.count("name") &&
            s.labels.at("name") == "weird\"na\\me\nx") {
            found = true;
            EXPECT_EQ(s.value, 3.0);
        }
    }
    EXPECT_TRUE(found) << "escaped label value did not round-trip";
}

TEST(ObsExposition, CacheCountersAreLiveWithoutCompileAll)
{
    // One sample per counter, read at scrape time.
    auto countSample = [](const Engine &engine, const std::string &name) {
        PromDoc doc;
        std::string error;
        EXPECT_TRUE(parseExposition(formatStatsSnapshot(engine), doc,
                                    error))
            << error;
        return sampleValue(doc, "tetris_count", {{"name", name}});
    };

    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        ("tetris_obs_cache_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    {
        // Bare submit() traffic, as tetrisd and the stream compiler
        // make: nothing calls syncCacheMetrics().
        EngineOptions opts;
        opts.diskCache = DiskCache::open(dir.string());
        ASSERT_NE(opts.diskCache, nullptr);
        Engine engine(opts);
        const CompileJob job = smallJobs(1)[0];
        for (int i = 0; i < 3; ++i)
            engine.submit(job)->get();
        engine.drain(); // the write-behind persist has landed
        ASSERT_EQ(engine.cache().hits(), 2u);

        EXPECT_EQ(countSample(engine, "cache.hits"), 2.0);
        EXPECT_EQ(countSample(engine, "cache.misses"), 1.0);
        // The store started empty: the one compile missed it and
        // wrote to it.
        EXPECT_EQ(countSample(engine, "cache.disk.misses"), 1.0);
        EXPECT_EQ(countSample(engine, "cache.disk.writes"), 1.0);
    }
    std::filesystem::remove_all(dir);

    // Without a disk tier there are no disk counters.
    Engine memory_only;
    EXPECT_EQ(countSample(memory_only, "cache.hits"), 0.0);
    EXPECT_TRUE(std::isnan(countSample(memory_only, "cache.disk.misses")));
}

TEST(ObsExposition, OldestInFlightAgeIsReadAtScrapeTime)
{
    EngineOptions opts;
    opts.numThreads = 1;
    Engine engine(opts);
    // Every scrape parses strictly and types the age as a gauge.
    auto scrapeAge = [&engine] {
        PromDoc doc;
        std::string error;
        EXPECT_TRUE(parseExposition(formatStatsSnapshot(engine), doc,
                                    error))
            << error;
        EXPECT_EQ(doc.types["tetris_jobs_oldest_inflight_seconds"],
                  "gauge");
        return sampleValue(doc, "tetris_jobs_oldest_inflight_seconds");
    };
    EXPECT_EQ(scrapeAge(), 0.0);

    auto entry = engine.submit(slowJob("oldest/slow", 400));
    // Only an in-flight job ages the gauge: it reads 0 again once the
    // job finishes, so a reading of 0.1 s was taken mid-flight.
    double peak = 0.0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (peak < 0.1 && std::chrono::steady_clock::now() < deadline) {
        peak = std::max(peak, scrapeAge());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(peak, 0.1);

    entry->get();
    engine.drain();
    EXPECT_EQ(scrapeAge(), 0.0);
}

// ---------------------------------------------------------------
// HTTP server.
// ---------------------------------------------------------------

TEST(ObsServerTest, ServesMetricsHealthzStatusz)
{
    EngineOptions opts;
    opts.obsServer = "127.0.0.1:0";
    Engine engine(opts);
    ASSERT_GT(engine.obsPort(), 0);
    engine.compileAll(smallJobs());

    int status = 0;
    const std::string metrics =
        obsHttpGet(engine.obsPort(), "/metrics", &status);
    ASSERT_EQ(status, 200);
    PromDoc doc;
    std::string error;
    ASSERT_TRUE(parseExposition(metrics, doc, error)) << error;
    checkHistograms(doc);

    const std::string health =
        obsHttpGet(engine.obsPort(), "/healthz", &status);
    EXPECT_EQ(status, 200);
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos)
        << health;
    EXPECT_NE(health.find("\"draining\":false"), std::string::npos);

    const std::string statusz =
        obsHttpGet(engine.obsPort(), "/statusz", &status);
    EXPECT_EQ(status, 200);
    EXPECT_NE(statusz.find("tetris engine status"), std::string::npos);
    EXPECT_NE(statusz.find("slowest recent jobs"), std::string::npos);
    EXPECT_NE(statusz.find("obs0"), std::string::npos)
        << "statusz lists no recent job names:\n"
        << statusz;

    EXPECT_EQ(obsHttpGet(engine.obsPort(), "/nope", &status), std::string("try /metrics, /healthz, or /statusz\n"));
    EXPECT_EQ(status, 404);
}

TEST(ObsServerTest, CountersMonotoneAcrossConsecutiveScrapes)
{
    EngineOptions opts;
    opts.obsServer = "127.0.0.1:0";
    Engine engine(opts);
    engine.compileAll(smallJobs(3));

    int status = 0;
    PromDoc first, second;
    std::string error;
    ASSERT_TRUE(parseExposition(
        obsHttpGet(engine.obsPort(), "/metrics", &status), first,
        error))
        << error;
    ASSERT_EQ(status, 200);

    // More work between the scrapes: counters may only grow.
    auto more = smallJobs(6);
    for (auto &job : more)
        job.name += "/second";
    engine.compileAll(std::move(more));

    ASSERT_TRUE(parseExposition(
        obsHttpGet(engine.obsPort(), "/metrics", &status), second,
        error))
        << error;
    ASSERT_EQ(status, 200);

    std::map<std::string, double> before;
    for (const auto &s : first.samples)
        if (first.types[familyOf(s, first)] == "counter")
            before[sampleKey(s)] = s.value;
    size_t compared = 0;
    for (const auto &s : second.samples) {
        if (second.types[familyOf(s, second)] != "counter")
            continue;
        auto it = before.find(sampleKey(s));
        if (it == before.end())
            continue;
        ++compared;
        EXPECT_GE(s.value, it->second)
            << "counter went backwards: " << sampleKey(s);
    }
    EXPECT_GT(compared, 5u);
}

TEST(ObsServerTest, HealthzFlipsToDrainingDuringDrain)
{
    EngineOptions opts;
    opts.obsServer = "127.0.0.1:0";
    Engine engine(opts);
    ASSERT_GT(engine.obsPort(), 0);
    engine.submit(slowJob("drainer", 400));

    std::thread draining([&engine] { engine.drain(); });
    bool saw_draining = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        const std::string health =
            obsHttpGet(engine.obsPort(), "/healthz", &status);
        if (status == 200 &&
            health.find("\"status\":\"draining\"") !=
                std::string::npos) {
            saw_draining = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    draining.join();
    EXPECT_TRUE(saw_draining)
        << "/healthz never reported draining during Engine::drain";

    int status = 0;
    const std::string health =
        obsHttpGet(engine.obsPort(), "/healthz", &status);
    EXPECT_EQ(status, 200);
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ObsServerTest, InvalidAddressRefusedWithoutServer)
{
    EngineOptions opts;
    opts.obsServer = "not an address";
    Engine engine(opts);
    EXPECT_EQ(engine.obsPort(), 0);
    // The engine still works without its scrape server.
    auto results = engine.compileAll(smallJobs(1));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0]->cancelled);
}

TEST(ObsServerTest, ScrapeUnderLoad)
{
    EngineOptions opts;
    opts.obsServer = "127.0.0.1:0";
    Engine engine(opts);
    ASSERT_GT(engine.obsPort(), 0);

    std::atomic<bool> stop{false};
    std::atomic<int> ok_scrapes{0};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 3; ++t) {
        scrapers.emplace_back([&, t] {
            const char *path = t == 0   ? "/metrics"
                               : t == 1 ? "/statusz"
                                        : "/healthz";
            while (!stop.load()) {
                int status = 0;
                obsHttpGet(engine.obsPort(), path, &status);
                if (status == 200)
                    ok_scrapes.fetch_add(1);
            }
        });
    }
    engine.compileAll(smallJobs(8));
    stop.store(true);
    for (auto &t : scrapers)
        t.join();
    EXPECT_GT(ok_scrapes.load(), 0);

    // A final scrape must still parse strictly after the burst.
    int status = 0;
    PromDoc doc;
    std::string error;
    ASSERT_TRUE(parseExposition(
        obsHttpGet(engine.obsPort(), "/metrics", &status), doc, error))
        << error;
    checkHistograms(doc);
}

// ---------------------------------------------------------------
// Event log.
// ---------------------------------------------------------------

TEST(EventLogTest, EngineEmitsJobLifecycleRecords)
{
    const std::string path = tempPath("lifecycle");
    std::remove(path.c_str());
    EventLog log;
    ASSERT_TRUE(log.arm(path));

    {
        EngineOptions opts;
        opts.eventLog = &log;
        Engine engine(opts);
        engine.compileAll(smallJobs(2));
    }
    {
        EngineOptions opts;
        opts.eventLog = &log;
        Engine engine(opts);
        engine.cancelPending();
        engine.compileAll(smallJobs(2));
    }
    log.close();

    const auto lines = readLines(path);
    ASSERT_FALSE(lines.empty());
    for (const auto &line : lines) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
        EXPECT_NE(line.find("\"event\":"), std::string::npos);
    }
    EXPECT_TRUE(anyLineContains(lines, "\"event\":\"job.start\""));
    EXPECT_TRUE(anyLineContains(lines, "\"event\":\"job.finish\""));
    EXPECT_TRUE(anyLineContains(lines, "\"outcome\":\"compiled\""));
    EXPECT_TRUE(anyLineContains(lines, "\"event\":\"job.cancel\""));
    std::remove(path.c_str());
}

TEST(EventLogTest, RotatesAtSizeBudget)
{
    const std::string path = tempPath("rotate");
    const std::string old = path + ".1";
    std::remove(path.c_str());
    std::remove(old.c_str());

    EventLog log;
    ASSERT_TRUE(log.arm(path, 4096));
    for (int i = 0; i < 200; ++i) {
        log.record("filler",
                   {EventLog::Field::u64("i", static_cast<uint64_t>(i)),
                    EventLog::Field::str(
                        "pad", std::string(64, 'x'))});
    }
    EXPECT_GE(log.rotationCount(), 1u);
    log.close();

    // Both generations exist, and every surviving line is intact
    // JSON (rotation must never tear a record).
    for (const std::string &p : {path, old}) {
        const auto lines = readLines(p);
        ASSERT_FALSE(lines.empty()) << p;
        for (const auto &line : lines) {
            EXPECT_EQ(line.front(), '{') << p;
            EXPECT_EQ(line.back(), '}') << p;
        }
    }
    std::remove(path.c_str());
    std::remove(old.c_str());
}

TEST(EventLogTest, DisabledRecordIsANoOp)
{
    EventLog log;
    EXPECT_FALSE(log.enabled());
    log.record("ignored", {EventLog::Field::u64("x", 1)});
    EXPECT_EQ(log.recordCount(), 0u);
}

TEST(EventLogTest, LogTeeMirrorsWarnLines)
{
    const std::string path = tempPath("tee");
    std::remove(path.c_str());
    EventLog log;
    ASSERT_TRUE(log.arm(path));
    installLogTee(log);
    logWarn("tee probe: disk cache exploded");
    logInfo("tee probe: info is below the tee threshold");
    clearLogTee();
    logWarn("tee probe: after clear");
    log.close();

    const auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"event\":\"log\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"level\":\"warn\""), std::string::npos);
    EXPECT_NE(lines[0].find("disk cache exploded"), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Stats summary.
// ---------------------------------------------------------------

TEST(StatsSummaryTest, FormatSummaryCarriesTheHeadlineNumbers)
{
    Engine engine;
    auto jobs = smallJobs(2);
    // Duplicate submissions so the cache sees hits.
    auto dup = smallJobs(2);
    jobs.insert(jobs.end(), dup.begin(), dup.end());
    engine.compileAll(std::move(jobs));

    const std::string line = formatSummary(engine, 2.0);
    EXPECT_NE(line.find("stats: summary: 4/4 jobs in 2.00s"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("jobs/s"), std::string::npos);
    EXPECT_NE(line.find("p50"), std::string::npos);
    EXPECT_NE(line.find("p99"), std::string::npos);
    EXPECT_NE(line.find("cache 2/4 hits (50.0%)"), std::string::npos)
        << line;
}

} // namespace
} // namespace tetris
