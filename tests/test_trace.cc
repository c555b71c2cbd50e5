/**
 * @file
 * Span-tracer tests: zero-cost disabled behavior, span recording and
 * nesting via TraceSpan, cross-thread buffer merging with distinct
 * track ids, Chrome trace-event JSON shape and balance, file export,
 * and the engine integration (a traced sweep emits queue_wait /
 * compile / stage / job spans labelled with the job name).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chem/uccsd.hh"
#include "engine/engine.hh"
#include "engine/stats.hh"
#include "engine/trace.hh"
#include "hardware/topologies.hh"

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
    {
        TraceSpan span(&tracer, "verify", "verify");
    }
    {
        TraceSpan span(nullptr, "verify", "verify");
    }

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

TEST(Trace, TraceSpanRecordsOnceOnEarlyClose)
{
    Tracer tracer;
    tracer.enable();
    {
        TraceSpan span(&tracer, "disk_read", "disk", "h2/ph");
        span.close();
        span.close(); // idempotent
    }
    EXPECT_EQ(tracer.eventCount(), 1u);
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

    std::error_code ec;
    fs::remove(path, ec);
}

TEST(Trace, WriteFileWithoutPathFails)
{
    Tracer tracer;
    tracer.enable();
    EXPECT_FALSE(tracer.writeFile());
}

TEST(Trace, EngineEmitsJobSpans)
{
    Tracer tracer;
    tracer.enable();

    EngineOptions opts;
    opts.tracer = &tracer;
    opts.verify = true;
    Engine engine(opts);

    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    std::vector<CompileJob> jobs;
    for (int seed = 0; seed < 3; ++seed) {
        CompileJob job;
        job.name = "trace/ucc" + std::to_string(seed);
        job.blocks = buildSyntheticUcc(5, 40 + seed);
        job.hw = hw;
        jobs.push_back(std::move(job));
    }
    auto results = engine.compileAll(std::move(jobs));
    ASSERT_EQ(results.size(), 3u);
    engine.drain();

    const std::string doc = tracer.toJson();
    EXPECT_TRUE(balancedJson(doc));
    // One queue_wait + one job span per dequeued submission, one
    // compile + three stage spans + one verify per fresh compile.
    EXPECT_EQ(countOf(doc, "\"name\":\"queue_wait\""), 3u);
    EXPECT_EQ(countOf(doc, "\"name\":\"job\""), 3u);
    EXPECT_EQ(countOf(doc, "\"name\":\"compile\""), 3u);
    EXPECT_EQ(countOf(doc, "\"name\":\"schedule\""), 3u);
    EXPECT_EQ(countOf(doc, "\"name\":\"synthesis\""), 3u);
    EXPECT_EQ(countOf(doc, "\"name\":\"peephole\""), 3u);
    EXPECT_EQ(countOf(doc, "\"name\":\"verify\""), 3u);
    EXPECT_EQ(countOf(doc, "\"job\":\"trace/ucc0\""), 7u);

    // The same sweep fed the latency histograms.
    auto hists = engine.metrics().histogramSnapshots();
    EXPECT_EQ(hists.at("job.latency_ns").count, 3u);
    EXPECT_EQ(hists.at("job.queue_wait_ns").count, 3u);
}

TEST(Trace, EngineWithDefaultTracerRecordsNothingWhenUntraced)
{
    // TETRIS_TRACE is not set in the test environment, so the global
    // tracer must stay disabled and an untraced engine run must not
    // accumulate spans.
    ASSERT_EQ(std::getenv("TETRIS_TRACE"), nullptr)
        << "test environment unexpectedly sets TETRIS_TRACE";
    const size_t before = Tracer::global().eventCount();

    Engine engine;
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(6));
    CompileJob job;
    job.name = "untraced";
    job.blocks = buildSyntheticUcc(4, 11);
    job.hw = hw;
    engine.wait(engine.submit(job));

    EXPECT_FALSE(Tracer::global().enabled());
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
    engine.wait(engine.submit(job));
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
