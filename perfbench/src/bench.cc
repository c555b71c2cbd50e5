#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include <sys/resource.h>
#include <unistd.h>

#include "common/json.hh"
#include "serialize/artifact.hh"

namespace perfbench
{

using namespace tetris;

void
Report::fail(const std::string &why)
{
    correct = false;
    failures.push_back(why);
}

void
Report::e2e(const std::string &name, double value, const char *unit)
{
    endToEnd[name] = Metric{value, unit};
}

void
Report::layer(const std::string &name, double value, const char *unit)
{
    perLayer[name] = Metric{value, unit};
}

void
Report::note(const std::string &line)
{
    notes.push_back(line);
}

void
Report::setConfig(const std::string &key, const std::string &value)
{
    config.emplace_back(key, value);
}

double
processCpuSeconds()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
moreSetups(const std::vector<double> &setups)
{
    double total = 0.0;
    for (double s : setups)
        total += s;
    return setups.size() < kSetupReps || total < kSetupSeconds;
}

Percentile
percentile(std::vector<double> v, double p)
{
    Percentile out;
    out.samples = v.size();
    if (v.empty()) {
        out.value = std::numeric_limits<double>::quiet_NaN();
        return out;
    }
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    out.value = v[rank - 1];
    out.beyond = v.size() - rank;
    return out;
}

std::string
describe(const char *label, const Percentile &p, const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %.4f %s (n=%zu, %zu beyond)",
                  label, p.value, unit, p.samples, p.beyond);
    return buf;
}

void
Quality::add(const CompileStats &s)
{
    ++results;
    cnots += s.cnotCount;
    depth += s.depth;
    durationDt += s.durationDt;
    swaps += s.swapCount;
    originalCnots += s.originalCnots;
    logicalCnots += s.logicalCnots;
    insertedSwaps += s.synthesis.insertedSwaps;
    bridgeNodes += s.synthesis.bridgeNodes;
}

bool
Quality::operator==(const Quality &o) const
{
    return results == o.results && cnots == o.cnots &&
           depth == o.depth && durationDt == o.durationDt &&
           swaps == o.swaps && originalCnots == o.originalCnots &&
           logicalCnots == o.logicalCnots &&
           insertedSwaps == o.insertedSwaps &&
           bridgeNodes == o.bridgeNodes;
}

void
Quality::report(Report &r) const
{
    r.e2e("cnot_count", static_cast<double>(cnots), "count");
    r.e2e("depth", static_cast<double>(depth), "layers");
    r.e2e("duration_dt", durationDt, "dt");
    r.e2e("swap_count", static_cast<double>(swaps), "count");
}

int64_t
SpanLog::open(const char *name, int64_t parent, int run, std::string job)
{
    if (!enabled_)
        return kNoParent;
    const uint64_t t = nowNs();
    return add(name, parent, run, t, t, std::move(job));
}

int64_t
SpanLog::add(const char *name, int64_t parent, int run,
             uint64_t start_ns, uint64_t end_ns, std::string job)
{
    if (!enabled_)
        return kNoParent;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        Span{name, parent, run, start_ns, end_ns, std::move(job)});
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
SpanLog::close(int64_t id)
{
    if (id < 0)
        return;
    const uint64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].endNs = t;
}

std::string
SpanLog::toJson(uint64_t epoch_ns) const
{
    auto us = [epoch_ns](uint64_t ns) {
        return (static_cast<double>(ns) - static_cast<double>(epoch_ns)) /
               1e3;
    };
    JsonWriter w;
    w.beginArray();
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject();
        w.key("id").value(static_cast<uint64_t>(i));
        if (s.parent >= 0)
            w.key("parent").value(static_cast<uint64_t>(s.parent));
        else
            w.key("parent").null();
        w.key("name").value(s.name);
        w.key("run").value(s.run);
        w.key("start").value(us(s.startNs));
        w.key("end").value(us(s.endNs));
        if (!s.job.empty())
            w.key("job").value(s.job);
        w.endObject();
    }
    w.endArray();
    return w.str();
}

void
Tracing::enable()
{
    engine.enable();
    spans.enable();
}

bool
Tracing::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\"spans\": " << spans.toJson(engine.epochNs())
        << ",\n\"engine\": " << engine.toJson() << "}\n";
    out.close();
    return !out.fail();
}

EngineOptions
engineOptions(Tracer *tracer)
{
    EngineOptions opts;
    opts.numThreads = kWorkers;
    opts.enableCache = true;
    opts.cacheShards = kCacheShards;
    opts.verify = true;
    opts.verifyBeforeStore = true;
    opts.tracer = tracer;
    return opts;
}

void
reportEngineConfig(Report &r)
{
    r.setConfig("engine.threads", std::to_string(kWorkers));
    r.setConfig("engine.cache_shards", std::to_string(kCacheShards));
    r.setConfig("engine.verify", "on");
    r.setConfig("engine.disk_tier", "off");
    r.setConfig("engine.obs_server", "off");
    r.setConfig("engine.stall_watchdog", "off");
}

EngineTotals
EngineTotals::read(Engine &engine)
{
    engine.syncCacheMetrics();
    const MetricsRegistry &m = engine.metrics();
    EngineTotals t;
    t.submitted = m.count("jobs.submitted");
    t.deduplicated = m.count("jobs.deduplicated");
    t.completed = m.count("jobs.completed");
    t.verifyPass = m.count("verify.pass");
    t.verifyFail = m.count("verify.fail");
    t.verifySkipped = m.count("verify.skipped");
    t.lockWaitNs = m.count("cache.lock_wait_ns");
    t.schedule = m.seconds("compile.schedule");
    t.synthesis = m.seconds("compile.synthesis");
    t.peephole = m.seconds("compile.peephole");
    t.compile = m.seconds("compile.total");
    t.verify = m.seconds("verify.seconds");
    // The histograms' exact sum fields; their percentiles are log2
    // bucket bounds and are never read here.
    for (const auto &[name, snap] : m.histogramSnapshots()) {
        if (name == "job.latency_ns")
            t.latencyNs = snap.sum;
        else if (name == "job.queue_wait_ns")
            t.queueWaitNs = snap.sum;
    }
    return t;
}

EngineTotals
EngineTotals::since(const EngineTotals &b) const
{
    EngineTotals d;
    d.submitted = submitted - b.submitted;
    d.deduplicated = deduplicated - b.deduplicated;
    d.completed = completed - b.completed;
    d.verifyPass = verifyPass - b.verifyPass;
    d.verifyFail = verifyFail - b.verifyFail;
    d.verifySkipped = verifySkipped - b.verifySkipped;
    d.lockWaitNs = lockWaitNs - b.lockWaitNs;
    d.schedule = schedule - b.schedule;
    d.synthesis = synthesis - b.synthesis;
    d.peephole = peephole - b.peephole;
    d.compile = compile - b.compile;
    d.verify = verify - b.verify;
    d.latencyNs = latencyNs - b.latencyNs;
    d.queueWaitNs = queueWaitNs - b.queueWaitNs;
    return d;
}

void
reportEngineLayers(Report &r, const EngineTotals &d, double wall)
{
    const double latency = static_cast<double>(d.latencyNs) / 1e9;
    const double queue = static_cast<double>(d.queueWaitNs) / 1e9;
    r.layer("core.schedule_s", d.schedule, "s");
    r.layer("core.synthesis_s", d.synthesis, "s");
    r.layer("circuit.peephole_s", d.peephole, "s");
    r.layer("core.jobs", static_cast<double>(d.completed), "count");
    r.layer("verify.busy_s", d.verify, "s");
    r.layer("verify.pass", static_cast<double>(d.verifyPass), "count");
    r.layer("verify.fail", static_cast<double>(d.verifyFail), "count");
    r.layer("verify.skipped", static_cast<double>(d.verifySkipped),
            "count");
    r.layer("engine.worker_idle_s", kWorkers * wall - (latency - queue),
            "s");
    r.layer("engine.queue_wait_s", queue, "s");
    r.layer("engine.overhead_s", latency - queue - d.compile - d.verify,
            "s");
    r.layer("engine.hit_ratio",
            d.submitted > 0 ? static_cast<double>(d.deduplicated) /
                                  static_cast<double>(d.submitted)
                            : 0.0,
            "ratio");
    r.layer("engine.lock_wait_s", static_cast<double>(d.lockWaitNs) / 1e9,
            "s");
}

void
CodecMeter::add(const CompileResult &result)
{
    if (!opened_) {
        root_ = tracing_.spans.open("post", SpanLog::kNoParent, run_);
        opened_ = true;
    }
    const uint64_t key = ++count_;
    const uint64_t t0 = nowNs();
    std::string image = serialize::encodeArtifact(key, result);
    const uint64_t t1 = nowNs();
    CompileResult back;
    const bool ok = serialize::decodeArtifact(image, key, back);
    const uint64_t t2 = nowNs();
    tracing_.spans.add("encodeArtifact", root_, run_, t0, t1);
    tracing_.spans.add("decodeArtifact", root_, run_, t1, t2);
    encodeSeconds_ += secondsBetween(t0, t1);
    decodeSeconds_ += secondsBetween(t1, t2);
    bytes_ += image.size();
    if (!ok || back.stats.cnotCount != result.stats.cnotCount ||
        back.circuit.size() != result.circuit.size())
        ++mismatches_;
}

void
CodecMeter::report(Report &r)
{
    tracing_.spans.close(root_);
    if (mismatches_ != 0)
        r.fail(std::to_string(mismatches_) +
               " results did not round-trip through the .tca codec");
    r.layer("serialize.encode_s", encodeSeconds_, "s");
    r.layer("serialize.decode_s", decodeSeconds_, "s");
    r.layer("serialize.bytes", static_cast<double>(bytes_), "bytes");
}

void
declareLayers(Report &r)
{
    struct Decl
    {
        const char *name;
        const char *unit;
    };
    static const Decl kLayers[] = {
        {"chem.build_s", "s"},
        {"frontend.parse_s", "s"},
        {"frontend.instructions", "count"},
        {"frontend.bytes", "bytes"},
        {"core.schedule_s", "s"},
        {"core.synthesis_s", "s"},
        {"circuit.peephole_s", "s"},
        {"core.jobs", "count"},
        {"core.blocks", "count"},
        {"core.cancel_ratio", "ratio"},
        {"core.inserted_swaps", "count"},
        {"core.bridge_nodes", "count"},
        {"verify.busy_s", "s"},
        {"verify.pass", "count"},
        {"verify.fail", "count"},
        {"verify.skipped", "count"},
        {"engine.worker_idle_s", "s"},
        {"engine.queue_wait_s", "s"},
        {"engine.overhead_s", "s"},
        {"engine.hit_ratio", "ratio"},
        {"engine.lock_wait_s", "s"},
        {"serialize.encode_s", "s"},
        {"serialize.decode_s", "s"},
        {"serialize.bytes", "bytes"},
        {"serve.rtt_p99_ms", "ms"},
        {"serve.server_ms_p50", "ms"},
        {"serve.server_ms_p99", "ms"},
        {"serve.wire_ms_p50", "ms"},
        {"serve.wire_ms_p99", "ms"},
        {"serve.samples", "count"},
        {"serve.samples_beyond_p99", "count"},
        {"trace.overhead_pct", "%"},
    };
    for (const Decl &d : kLayers)
        r.layer(d.name, 0.0, d.unit);
}

void
reportQualityLayers(Report &r, const Quality &q)
{
    r.layer("core.cancel_ratio",
            q.originalCnots > 0
                ? static_cast<double>(q.originalCnots - q.logicalCnots) /
                      static_cast<double>(q.originalCnots)
                : 0.0,
            "ratio");
    r.layer("core.inserted_swaps", static_cast<double>(q.insertedSwaps),
            "count");
    r.layer("core.bridge_nodes", static_cast<double>(q.bridgeNodes),
            "count");
}

TempDir::TempDir(const std::string &parent, const std::string &tag)
{
    std::filesystem::create_directories(parent);
    std::string templ = parent + "/" + tag + "-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " + parent);
    path_ = buf.data();
}

TempDir::~TempDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    // splitmix64 over the three inputs.
    uint64_t x = seed * 0x9e3779b97f4a7c15ull ^
                 (stream + 0x632be59bd9b4e019ull) * 0xbf58476d1ce4e5b9ull ^
                 (index + 1) * 0x94d049bb133111ebull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace perfbench
