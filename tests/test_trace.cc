/**
 * @file
 * Span-tracer tests: zero-cost disabled behavior, span recording,
 * cross-thread buffer merging with distinct track ids, Chrome
 * trace-event JSON shape and balance, file export, and the engine's
 * job lifecycle: for runs with no disk tier, a cold and a warm store,
 * and cancellation, each job's nested spans, its event records, the
 * counters and histograms, and the in-flight and recent-job tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chem/uccsd.hh"
#include "common/env.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/stats.hh"
#include "engine/trace.hh"
#include "hardware/topologies.hh"
#include "obs/event_log.hh"

namespace tetris
{
namespace
{

/** Occurrences of `needle` in `haystack`. */
size_t
countOf(const std::string &haystack, const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/**
 * Structural JSON check without a parser: every brace/bracket closes
 * in order and quotes balance outside of escapes. Catches the whole
 * class of "emitted half an object" exporter bugs.
 */
bool
balancedJson(const std::string &doc)
{
    std::vector<char> stack;
    bool in_string = false;
    for (size_t i = 0; i < doc.size(); ++i) {
        char c = doc[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            stack.push_back(c);
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return !in_string && stack.empty();
}

TEST(Trace, DisabledTracerRecordsNothing)
{
    Tracer tracer;
    EXPECT_FALSE(tracer.enabled());

    tracer.recordSpan("compile", "compile", 0, 100, "job");

    EXPECT_EQ(tracer.eventCount(), 0u);
    const std::string doc = tracer.toJson();
    EXPECT_TRUE(balancedJson(doc));
    EXPECT_NE(doc.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(Trace, RecordSpanExportsChromeEvents)
{
    Tracer tracer;
    tracer.enable();
    const uint64_t epoch = tracer.epochNs();

    tracer.recordSpan("job", "job", epoch + 1000, epoch + 501000,
                      "lih/tetris");
    tracer.recordSpan("compile", "compile", epoch + 2000,
                      epoch + 402000);
    // End-before-start clamps to a zero-length span, never wraps.
    tracer.recordSpan("verify", "verify", epoch + 5000, epoch + 4000);

    EXPECT_EQ(tracer.eventCount(), 3u);
    const std::string doc = tracer.toJson();
    EXPECT_TRUE(balancedJson(doc));
    EXPECT_NE(doc.find("\"name\":\"job\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"compile\""), std::string::npos);
    EXPECT_EQ(countOf(doc, "\"ph\":\"X\""), 3u);
    // Durations are exported as microseconds relative to the epoch.
    EXPECT_NE(doc.find("\"dur\":500"), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":400"), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":0"), std::string::npos);
    // The job label rides in args; unlabeled spans omit args.
    EXPECT_EQ(countOf(doc, "\"job\":\"lih/tetris\""), 1u);
    EXPECT_EQ(countOf(doc, "\"args\""), 1u);
    EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
}

TEST(Trace, CrossThreadSpansMergeWithDistinctTracks)
{
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 64;

    Tracer tracer;
    tracer.enable();
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&tracer] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                const uint64_t now = steadyNowNs();
                tracer.recordSpan("compile", "compile", now, now + 10);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(tracer.eventCount(),
              static_cast<size_t>(kThreads * kSpansPerThread));

    // Every recording thread gets its own track id, 0..N-1.
    const std::string doc = tracer.toJson();
    EXPECT_TRUE(balancedJson(doc));
    std::set<std::string> tids;
    for (int t = 0; t < kThreads; ++t) {
        // tid is the event's last key when no args follow, so the
        // closing brace makes the match exact.
        std::string tag = "\"tid\":" + std::to_string(t) + "}";
        EXPECT_EQ(countOf(doc, tag),
                  static_cast<size_t>(kSpansPerThread))
            << tag;
        tids.insert(tag);
    }
    EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));

    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(Trace, WriteFileProducesLoadableDocument)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() /
        ("tetris-trace-test-" + std::to_string(::getpid()) + ".json");

    {
        // ~Tracer writes an armed tracer's file again, so the file is
        // removed only once the tracer is gone.
        Tracer tracer;
        tracer.enable(path.string());
        const uint64_t epoch = tracer.epochNs();
        tracer.recordSpan("job", "job", epoch, epoch + 1000, "h2/tetris");
        ASSERT_TRUE(tracer.writeFile());

        std::ifstream in(path);
        ASSERT_TRUE(in.good());
        std::stringstream buffer;
        buffer << in.rdbuf();
        const std::string doc = buffer.str();
        EXPECT_TRUE(balancedJson(doc));
        EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
        EXPECT_NE(doc.find("\"h2/tetris\""), std::string::npos);
    }

    std::error_code ec;
    EXPECT_TRUE(fs::remove(path, ec)) << ec.message();
    EXPECT_FALSE(fs::exists(path));
}

TEST(Trace, WriteFileWithoutPathFails)
{
    Tracer tracer;
    tracer.enable();
    EXPECT_FALSE(tracer.writeFile());
}

/** One exported trace event; ts and dur are µs since the epoch. */
struct ExportedSpan
{
    std::string name;
    std::string cat;
    std::string job;
    double ts = 0.0;
    double dur = 0.0;
};

/** The raw value after `"key":` in one exported event object. */
std::string
fieldOf(const std::string &event, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    size_t pos = event.find(tag);
    if (pos == std::string::npos)
        return {};
    pos += tag.size();
    if (event[pos] == '"')
        return event.substr(pos + 1, event.find('"', pos + 1) - pos - 1);
    return event.substr(pos, event.find_first_of(",}", pos) - pos);
}

/** Every event of a Tracer::toJson() document, in export order. */
std::vector<ExportedSpan>
parseSpans(const std::string &doc)
{
    const std::string open = "{\"name\":";
    std::vector<ExportedSpan> spans;
    for (size_t pos = doc.find(open); pos != std::string::npos;) {
        const size_t next = doc.find(open, pos + 1);
        const std::string event = doc.substr(pos, next - pos);
        spans.push_back({fieldOf(event, "name"), fieldOf(event, "cat"),
                         fieldOf(event, "job"),
                         std::stod(fieldOf(event, "ts")),
                         std::stod(fieldOf(event, "dur"))});
        pos = next;
    }
    return spans;
}

/**
 * One job's spans as "name:cat" lines in start order, indented one
 * space per enclosing span. A span nests under the innermost earlier
 * span that still contains its end; the 1 ns tolerance absorbs the
 * rounding of the exported µs doubles.
 */
std::vector<std::string>
spanTree(std::vector<ExportedSpan> spans)
{
    constexpr double kToleranceUs = 1e-3;
    std::sort(spans.begin(), spans.end(),
              [](const ExportedSpan &a, const ExportedSpan &b) {
                  return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
              });
    std::vector<std::string> lines;
    std::vector<double> open_ends;
    for (const ExportedSpan &s : spans) {
        while (!open_ends.empty() &&
               s.ts + s.dur > open_ends.back() + kToleranceUs)
            open_ends.pop_back();
        lines.push_back(std::string(open_ends.size(), ' ') + s.name +
                        ":" + s.cat);
        open_ends.push_back(s.ts + s.dur);
    }
    return lines;
}

/** Lines of `path` with the timing fields masked to `_`. */
std::vector<std::string>
maskedRecords(const std::string &path)
{
    static const std::regex timing("\"(ts_ms|latency_ms)\":[^,}]+");
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(std::regex_replace(line, timing, "\"$1\":_"));
    return lines;
}

/** `pattern` with $J, $K and $P replaced by one job's values. */
std::string
fillRecord(std::string pattern, const CompileJob &job)
{
    const std::pair<std::string, std::string> subs[] = {
        {"$J", job.name},
        {"$K", std::to_string(Engine::jobKey(job))},
        {"$P", job.pipeline->name()},
    };
    for (const auto &[from, to] : subs) {
        const size_t pos = pattern.find(from);
        if (pos != std::string::npos)
            pattern.replace(pos, from.size(), to);
    }
    return pattern;
}

/**
 * One row of the job-lifecycle table: how the engine is set up, and
 * what every one of its three dequeued jobs must leave behind.
 */
struct LifecycleRun
{
    const char *label;
    /** Attach the disk tier; the cold run fills what the warm reads. */
    bool disk;
    bool cancel;
    /** spanTree() of each job. */
    std::vector<std::string> spans;
    /** Event records of each job; $J, $K, $P are filled per job. */
    std::vector<std::string> records;
    /** Stage of the job in the in-flight table at its callback. */
    const char *stageAtCallback;
    /** Engine counters that must hold these exact values. */
    std::map<std::string, uint64_t> counters;
    /** Names listed by counts() and timers(). */
    std::set<std::string> countNames;
    std::set<std::string> timerNames;
};

const char *const kStartRecord =
    R"({"ts_ms":_,"event":"job.start","job":"$J","key":$K,)"
    R"("pipeline":"$P"})";
const char *const kCompiledRecord =
    R"({"ts_ms":_,"event":"job.finish","job":"$J","key":$K,)"
    R"("outcome":"compiled","latency_ms":_,"verify_failed":false})";

const std::set<std::string> kMemoryCountNames = {
    "cache.hits", "cache.lock_wait_ns", "cache.misses",
    "cache.shard_count", "jobs.deduplicated", "jobs.submitted"};
const std::set<std::string> kDiskCountNames = {"cache.disk.misses",
                                               "cache.disk.writes"};
const std::set<std::string> kCompiledCountNames = {
    "gates.cnot", "gates.oneq", "gates.swap", "jobs.completed",
    "verify.pass"};
const std::set<std::string> kCompiledTimerNames = {
    "compile.peephole", "compile.schedule", "compile.synthesis",
    "compile.total", "verify.seconds"};

/** The union of name sets. */
std::set<std::string>
namesOf(std::initializer_list<std::set<std::string>> parts)
{
    std::set<std::string> out;
    for (const auto &part : parts)
        out.insert(part.begin(), part.end());
    return out;
}

const LifecycleRun kLifecycleRuns[] = {
    {"no disk tier",
     false,
     false,
     {"queue_wait:queue", "job:job", " compile:compile",
      "  schedule:stage", "  synthesis:stage", "  peephole:stage",
      " verify:verify"},
     {kStartRecord, kCompiledRecord},
     "publish",
     {{"jobs.submitted", 4}, {"jobs.deduplicated", 1},
      {"jobs.completed", 3}, {"verify.pass", 3}},
     namesOf({kMemoryCountNames, kCompiledCountNames}),
     kCompiledTimerNames},
    {"cold disk tier",
     true,
     false,
     {"queue_wait:queue", "job:job", " disk_read:disk",
      " compile:compile", "  schedule:stage", "  synthesis:stage",
      "  peephole:stage", " verify:verify", "disk_write:disk"},
     {kStartRecord, kCompiledRecord},
     "publish",
     {{"jobs.submitted", 4}, {"jobs.deduplicated", 1},
      {"jobs.completed", 3}, {"verify.pass", 3},
      {"cache.disk.misses", 3}, {"cache.disk.writes", 3}},
     namesOf({kMemoryCountNames, kDiskCountNames, kCompiledCountNames}),
     kCompiledTimerNames},
    {"warm disk tier",
     true,
     false,
     {"queue_wait:queue", "job:job", " disk_read:disk",
      " verify:verify"},
     {kStartRecord,
      R"({"ts_ms":_,"event":"job.finish","job":"$J","key":$K,)"
      R"("outcome":"disk_hit","latency_ms":_})"},
     "verify",
     {{"jobs.submitted", 4}, {"jobs.deduplicated", 1},
      {"jobs.disk_hits", 3}, {"verify.pass", 3},
      {"cache.disk.misses", 0}, {"cache.disk.writes", 0}},
     namesOf({kMemoryCountNames, kDiskCountNames,
              {"jobs.disk_hits", "verify.pass"}}),
     {"verify.seconds"}},
    {"cancelled",
     false,
     true,
     {"queue_wait:queue", "job:job"},
     {R"({"ts_ms":_,"event":"job.cancel","job":"$J","key":$K})"},
     "queued",
     {{"jobs.submitted", 4}, {"jobs.deduplicated", 1},
      {"jobs.cancelled", 3}},
     namesOf({kMemoryCountNames, {"jobs.cancelled"}}),
     {}},
};

TEST(Trace, EngineEmitsJobSpans)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() /
        ("tetris-lifecycle-" + std::to_string(::getpid()));
    fs::remove_all(root);
    fs::create_directories(root);
    const std::string store = (root / "store").string();

    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    std::vector<CompileJob> jobs;
    for (int seed = 0; seed < 3; ++seed) {
        CompileJob job;
        job.name = "trace/ucc" + std::to_string(seed);
        job.blocks = buildSyntheticUcc(5, 40 + seed);
        job.hw = hw;
        jobs.push_back(std::move(job));
    }

    for (const LifecycleRun &run : kLifecycleRuns) {
        SCOPED_TRACE(run.label);
        const std::string log_path =
            (root / (std::string(run.label) + ".jsonl")).string();
        Tracer tracer;
        tracer.enable();
        EventLog log;
        ASSERT_TRUE(log.arm(log_path));

        EngineOptions opts;
        opts.numThreads = 1;
        opts.tracer = &tracer;
        opts.eventLog = &log;
        opts.verify = true;
        if (run.disk)
            opts.diskCache = DiskCache::open(store);
        // The callback sees which stage the in-flight table holds for
        // its job. It also holds the worker until the duplicate has
        // deduplicated, so a cancelled original cannot leave the
        // cache before its duplicate arrives.
        std::map<std::string, std::string> stage_at_callback;
        Engine *engine_ptr = nullptr;
        opts.onJobDone = [&](size_t, size_t, const std::string &name) {
            while (engine_ptr->metrics().count("jobs.deduplicated") == 0)
                std::this_thread::yield();
            for (const auto &active : engine_ptr->activeJobs())
                if (active->name == name)
                    stage_at_callback[name] = active->stage.load();
        };
        Engine engine(opts);
        engine_ptr = &engine;
        if (run.cancel)
            engine.cancelPending();

        std::vector<CompileJob> batch = jobs;
        CompileJob duplicate = jobs.back();
        duplicate.name = "trace/duplicate";
        batch.push_back(std::move(duplicate));
        ASSERT_EQ(engine.compileAll(std::move(batch)).size(), 4u);
        // Write-behind persists land after compileAll returns.
        engine.drain();
        engine.syncCacheMetrics();
        log.close();

        std::map<std::string, std::vector<ExportedSpan>> spans_by_job;
        for (ExportedSpan &span : parseSpans(tracer.toJson()))
            spans_by_job[span.job].push_back(std::move(span));
        EXPECT_EQ(spans_by_job.size(), jobs.size());

        std::vector<std::string> expected_records;
        std::vector<std::string> recent_names;
        for (const CompileJob &job : jobs) {
            SCOPED_TRACE(job.name);
            EXPECT_EQ(spanTree(spans_by_job[job.name]), run.spans);
            EXPECT_EQ(stage_at_callback[job.name], run.stageAtCallback);
            for (const std::string &pattern : run.records)
                expected_records.push_back(fillRecord(pattern, job));
            recent_names.push_back(job.name);
        }
        EXPECT_EQ(maskedRecords(log_path), expected_records);
        EXPECT_EQ(stage_at_callback.count("trace/duplicate"), 0u);

        const MetricsRegistry &metrics = engine.metrics();
        for (const auto &[name, value] : run.counters)
            EXPECT_EQ(metrics.count(name), value) << name;
        std::set<std::string> count_names, timer_names;
        for (const auto &entry : metrics.counts())
            count_names.insert(entry.first);
        for (const auto &entry : metrics.timers())
            timer_names.insert(entry.first);
        EXPECT_EQ(count_names, run.countNames);
        EXPECT_EQ(timer_names, run.timerNames);

        auto hists = metrics.histogramSnapshots();
        EXPECT_EQ(hists.at("job.latency_ns").count, 3u);
        EXPECT_EQ(hists.at("job.queue_wait_ns").count, 3u);
        std::vector<std::string> recent;
        for (const auto &job : engine.recentJobs())
            recent.push_back(job.name);
        EXPECT_EQ(recent, recent_names);
        EXPECT_TRUE(engine.activeJobs().empty());
        EXPECT_EQ(engine.startedCount(), 3u);
        EXPECT_EQ(engine.finishedCount(), 4u);
    }
    fs::remove_all(root);
}

TEST(Trace, EngineWithDefaultTracerFollowsTetrisTrace)
{
    // TETRIS_TRACE alone arms the global tracer. Test runs usually
    // leave it unset, and then an engine run must not accumulate
    // spans; CI's ThreadSanitizer job sets it for every suite, and
    // then the same run must record them.
    const bool traced = !envString("TETRIS_TRACE").empty();
    const size_t before = Tracer::global().eventCount();

    Engine engine;
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(6));
    CompileJob job;
    job.name = "default-tracer";
    job.blocks = buildSyntheticUcc(4, 11);
    job.hw = hw;
    engine.submit(job)->get();

    EXPECT_EQ(Tracer::global().enabled(), traced);
    if (traced)
        EXPECT_GT(Tracer::global().eventCount(), before);
    else
        EXPECT_EQ(Tracer::global().eventCount(), before);
}

TEST(Stats, SnapshotFormatsEngineState)
{
    Engine engine;
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(6));
    CompileJob job;
    job.name = "stats/job";
    job.blocks = buildSyntheticUcc(4, 17);
    job.hw = hw;
    engine.submit(job)->get();
    engine.drain();

    EXPECT_EQ(engine.submittedCount(), 1u);
    EXPECT_EQ(engine.startedCount(), 1u);
    EXPECT_EQ(engine.finishedCount(), 1u);

    const std::string body = formatStatsSnapshot(engine);
    EXPECT_NE(body.find("tetris_jobs_submitted 1"), std::string::npos);
    EXPECT_NE(body.find("tetris_jobs_finished 1"), std::string::npos);
    EXPECT_NE(body.find("tetris_count{name=\"jobs.completed\"} 1"),
              std::string::npos);
    EXPECT_NE(body.find("tetris_seconds{name=\"compile.total\"}"),
              std::string::npos);
    EXPECT_NE(body.find("tetris_job_latency_ns_count 1"),
              std::string::npos);
    EXPECT_NE(body.find("quantile=\"0.99\""), std::string::npos);
}

} // namespace
} // namespace tetris
