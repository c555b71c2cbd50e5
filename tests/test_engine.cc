/**
 * @file
 * Batch-engine tests: parallel-vs-serial determinism, registry
 * dispatch against the direct entry points, compile-cache hit/miss
 * accounting, in-flight dedup and cross-pipeline key separation,
 * the sharded cache (TETRIS_CACHE_SHARDS resolution, multi-thread
 * contention stress across shard counts {1, 4, 64}, dedup
 * invariance under sharding, erase releasing its entry), progress
 * reporting, thread-pool stress, the single-thread fallback, the
 * hardened TETRIS_ENGINE_THREADS knob, JSON serialization of stats
 * and metrics, and cancellation of pending jobs. (The persistent
 * disk tier has its own suite in test_disk_cache.cc.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "baselines/max_cancel.hh"
#include "baselines/naive.hh"
#include "baselines/paulihedral.hh"
#include "baselines/qaoa_2qan.hh"
#include "chem/uccsd.hh"
#include "common/json.hh"
#include "core/pipeline_adapters.hh"
#include "core/qaoa_pass.hh"
#include "engine/engine.hh"
#include "engine/thread_pool.hh"
#include "hardware/topologies.hh"
#include "qaoa/qaoa.hh"
#include "test_util.hh"

namespace tetris
{
namespace
{

/** A mixed >= 8-job workload over two devices and several options. */
std::vector<CompileJob>
mixedJobs()
{
    auto hex = std::make_shared<const CouplingGraph>(heavyHexTopology(2, 5));
    auto grid = std::make_shared<const CouplingGraph>(gridTopology(4, 4));

    TetrisOptions lex_opts;
    lex_opts.scheduler = SchedulerKind::Lexicographic;

    std::vector<CompileJob> jobs;
    for (int n : {6, 8, 10}) {
        CompileJob job;
        job.name = "ucc" + std::to_string(n);
        job.blocks = buildSyntheticUcc(n, 42 + n);
        job.hw = n <= 8 ? hex : grid;
        jobs.push_back(job);

        CompileJob lex = job;
        lex.name += "/lex";
        lex.pipeline = makeTetrisPipeline(lex_opts);
        jobs.push_back(std::move(lex));

        CompileJob ph = job;
        ph.name += "/ph";
        ph.pipeline = PipelineRegistry::instance().create("paulihedral");
        jobs.push_back(std::move(ph));
    }
    return jobs;
}

TEST(ThreadPool, StressManyTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 500; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 500);

    // Pool stays usable after an idle period.
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 501);
}

TEST(ThreadPool, ResolveThreadCount)
{
    EXPECT_EQ(ThreadPool::resolveThreadCount(3), 3);
    ::setenv("TETRIS_ENGINE_THREADS", "5", 1);
    EXPECT_EQ(ThreadPool::resolveThreadCount(0), 5);
    ::unsetenv("TETRIS_ENGINE_THREADS");
    EXPECT_GE(ThreadPool::resolveThreadCount(0), 1);
}

TEST(ThreadPool, ResolveThreadCountRejectsGarbage)
{
    ::unsetenv("TETRIS_ENGINE_THREADS");
    const int fallback = ThreadPool::resolveThreadCount(0);
    EXPECT_GE(fallback, 1);

    // Garbage, trailing junk, negatives, zero, and overflow must all
    // fall back to hardware concurrency -- never whatever atoi()
    // would have produced (e.g. 8 for "8abc", huge for overflow).
    for (const char *bad :
         {"garbage", "8abc", "-3", "0", "-0", "2.5", "",
          "99999999999999999999", "4097", "0x10"}) {
        ::setenv("TETRIS_ENGINE_THREADS", bad, 1);
        EXPECT_EQ(ThreadPool::resolveThreadCount(0), fallback)
            << "env='" << bad << "'";
    }

    // Surrounding whitespace is tolerated; the bound is inclusive.
    ::setenv("TETRIS_ENGINE_THREADS", " 12 ", 1);
    EXPECT_EQ(ThreadPool::resolveThreadCount(0), 12);
    ::setenv("TETRIS_ENGINE_THREADS", "4096", 1);
    EXPECT_EQ(ThreadPool::resolveThreadCount(0), 4096);

    // An explicit request always wins over the environment.
    ::setenv("TETRIS_ENGINE_THREADS", "garbage", 1);
    EXPECT_EQ(ThreadPool::resolveThreadCount(2), 2);
    ::unsetenv("TETRIS_ENGINE_THREADS");
}

TEST(CompileCache, ResolveShardCountHonorsEnvAndRejectsGarbage)
{
    ::unsetenv("TETRIS_CACHE_SHARDS");
    const int fallback = CompileCache::resolveShardCount(0);
    EXPECT_GE(fallback, 1);
    EXPECT_LE(fallback, 1024);
    // The derived default is a power of two (shard index = key mod N
    // stays cheap and evenly spread).
    EXPECT_EQ(fallback & (fallback - 1), 0);

    ::setenv("TETRIS_CACHE_SHARDS", "6", 1);
    EXPECT_EQ(CompileCache::resolveShardCount(0), 6);
    ::setenv("TETRIS_CACHE_SHARDS", " 128 ", 1);
    EXPECT_EQ(CompileCache::resolveShardCount(0), 128);
    ::setenv("TETRIS_CACHE_SHARDS", "1024", 1);
    EXPECT_EQ(CompileCache::resolveShardCount(0), 1024);

    for (const char *bad : {"garbage", "8abc", "-3", "0", "2.5", "",
                            "1025", "99999999999999999999", "0x10"}) {
        ::setenv("TETRIS_CACHE_SHARDS", bad, 1);
        EXPECT_EQ(CompileCache::resolveShardCount(0), fallback)
            << "env='" << bad << "'";
    }

    // An explicit request beats the environment and is clamped.
    ::setenv("TETRIS_CACHE_SHARDS", "2", 1);
    EXPECT_EQ(CompileCache::resolveShardCount(7), 7);
    EXPECT_EQ(CompileCache::resolveShardCount(5000), 1024);
    ::unsetenv("TETRIS_CACHE_SHARDS");
}

TEST(CompileCache, ShardedContentionStressLosesNothing)
{
    // The sharding invariant under fire: for every key, exactly one
    // acquire() across all threads reports is_new (one compilation,
    // never zero, never two), and every hit observes the value its
    // owner published — across shard counts spanning one-mutex to
    // more-shards-than-keys.
    for (int shards : {1, 4, 64}) {
        CompileCache cache(shards);
        EXPECT_EQ(cache.shardCount(), shards);

        constexpr int kThreads = 8;
        constexpr int kKeys = 96;
        constexpr int kOpsPerThread = 3000;
        std::array<std::atomic<int>, kKeys> owners{};
        std::atomic<bool> go{false};
        std::atomic<int> mismatches{0};

        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                while (!go.load()) {
                }
                for (int i = 0; i < kOpsPerThread; ++i) {
                    const int k = (i * 17 + t * 31) % kKeys;
                    const uint64_t key =
                        0x9e3779b97f4a7c15ull * (k + 1);
                    bool is_new = false;
                    auto entry = cache.acquire(key, is_new);
                    if (is_new) {
                        owners[k].fetch_add(1);
                        auto result =
                            std::make_shared<CompileResult>();
                        // Tag the payload with its key so readers can
                        // detect cross-key mixups.
                        result->stats.cnotCount =
                            static_cast<uint64_t>(k);
                        entry->publish(std::move(result));
                    } else {
                        auto result = entry->get();
                        if (result->stats.cnotCount !=
                            static_cast<uint64_t>(k)) {
                            mismatches.fetch_add(1);
                        }
                    }
                }
            });
        }
        go.store(true);
        for (auto &w : workers)
            w.join();

        for (int k = 0; k < kKeys; ++k)
            EXPECT_EQ(owners[k].load(), 1)
                << "shards=" << shards << " key " << k;
        EXPECT_EQ(mismatches.load(), 0) << "shards=" << shards;
        EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
        EXPECT_EQ(cache.misses(), static_cast<size_t>(kKeys));
        EXPECT_EQ(cache.hits() + cache.misses(),
                  static_cast<size_t>(kThreads) * kOpsPerThread);

        // erase() targets the right shard: the key recompiles.
        const uint64_t first_key = 0x9e3779b97f4a7c15ull;
        cache.erase(first_key);
        bool is_new = false;
        cache.acquire(first_key, is_new);
        EXPECT_TRUE(is_new) << "shards=" << shards;

        cache.clear();
        EXPECT_EQ(cache.size(), 0u);
        EXPECT_EQ(cache.hits(), 0u);
        EXPECT_EQ(cache.misses(), 0u);
        EXPECT_EQ(cache.lockWaitNs(), 0u);
    }
}

TEST(CompileCache, EraseReleasesTheEntry)
{
    // erase() drops the cache's reference at once: after the caller
    // lets go of its handle, nothing keeps the entry (or its result)
    // alive.
    CompileCache cache(1);
    const uint64_t key = 0x9e3779b97f4a7c15ull;
    std::weak_ptr<CompileCache::Entry> weak;
    {
        bool is_new = false;
        auto entry = cache.acquire(key, is_new);
        ASSERT_TRUE(is_new);
        entry->publish(std::make_shared<const CompileResult>());
        weak = entry;
    }
    EXPECT_FALSE(weak.expired()); // the cache still holds it
    cache.erase(key);
    EXPECT_TRUE(weak.expired());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(CompileCache, HitsStayCoherentUnderRehashAndErase)
{
    // Readers look up stable keys while a writer churns the same
    // shards: inserting enough fresh keys to force the shard maps to
    // rehash and erasing/recreating a victim key. Stable keys must
    // always hit and always return their own payload (TSan covers
    // the locking; this asserts the semantics).
    CompileCache cache(4);
    constexpr int kStable = 64;
    auto key_of = [](int k) {
        return 0x9e3779b97f4a7c15ull * (k + 1);
    };
    for (int k = 0; k < kStable; ++k) {
        bool is_new = false;
        auto entry = cache.acquire(key_of(k), is_new);
        auto result = std::make_shared<CompileResult>();
        result->stats.cnotCount = static_cast<uint64_t>(k);
        entry->publish(std::move(result));
    }

    std::atomic<bool> stop{false};
    std::atomic<int> bad{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            for (int i = 0; !stop.load(std::memory_order_relaxed);
                 ++i) {
                const int k = (i * 5 + t * 11) % kStable;
                bool is_new = true;
                auto entry = cache.acquire(key_of(k), is_new);
                auto result = entry->get();
                if (is_new || result == nullptr ||
                    result->stats.cnotCount !=
                        static_cast<uint64_t>(k))
                    bad.fetch_add(1);
            }
        });
    }

    // Writer: 4k inserts across 4 shards force several rehashes of
    // each shard's map; the erase victim is removed and reinserted
    // around every growth step.
    auto published = std::make_shared<const CompileResult>();
    for (int n = 0; n < 4000; ++n) {
        bool is_new = false;
        auto entry = cache.acquire(key_of(kStable + 1000 + n), is_new);
        if (is_new)
            entry->publish(published);
        const uint64_t victim = key_of(kStable + 500);
        cache.erase(victim);
        bool victim_new = false;
        cache.acquire(victim, victim_new)->publish(published);
        EXPECT_TRUE(victim_new);
    }
    stop.store(true);
    for (auto &r : readers)
        r.join();

    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(cache.size(), static_cast<size_t>(kStable + 4000 + 1));
}

TEST(Engine, CacheShardsOptionPreservesDedupSemantics)
{
    // The dedup accounting of CacheHitsOnRepeatedJob must be
    // unchanged by any shard configuration.
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(10));
    for (int shards : {1, 4, 64}) {
        EngineOptions opts;
        opts.numThreads = 4;
        opts.cacheShards = shards;
        Engine engine(opts);
        EXPECT_EQ(engine.cache().shardCount(), shards);

        std::vector<CompileJob> jobs;
        for (int round = 0; round < 3; ++round) {
            for (int n : {5, 6, 7}) {
                CompileJob job;
                job.name = "shard" + std::to_string(n);
                job.blocks = buildSyntheticUcc(n, 300 + n);
                job.hw = hw;
                jobs.push_back(std::move(job));
            }
        }
        auto results = engine.compileAll(std::move(jobs));
        ASSERT_EQ(results.size(), 9u);
        for (int i = 0; i < 3; ++i)
            for (int r = 1; r < 3; ++r)
                EXPECT_EQ(results[static_cast<size_t>(i)],
                          results[static_cast<size_t>(r * 3 + i)]);
        EXPECT_EQ(engine.cache().misses(), 3u);
        EXPECT_EQ(engine.cache().hits(), 6u);
        EXPECT_EQ(engine.metrics().count("jobs.completed"), 3u);
        EXPECT_EQ(engine.metrics().count("jobs.deduplicated"), 6u);
        // compileAll published the cache gauges into the registry.
        EXPECT_EQ(engine.metrics().count("cache.shard_count"),
                  static_cast<uint64_t>(shards));
    }
}

TEST(Engine, ParallelMatchesSerial)
{
    auto jobs = mixedJobs();
    ASSERT_GE(jobs.size(), 8u);

    // Serial reference: direct pipeline runs, no engine. (That
    // Pipeline::run matches the raw entry points is covered by
    // PipelineDispatch.MatchesDirectEntryPoints.)
    std::vector<CompileResult> serial;
    for (const auto &job : jobs)
        serial.push_back(job.pipeline->run(job.blocks, *job.hw));

    EngineOptions opts;
    opts.numThreads = 4;
    Engine engine(opts);
    EXPECT_EQ(engine.numThreads(), 4);
    auto parallel = engine.compileAll(jobs);

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_NE(parallel[i], nullptr);
        EXPECT_TRUE(test::sameImage(*parallel[i], serial[i]));
    }
    EXPECT_EQ(engine.metrics().count("jobs.submitted"), jobs.size());
    EXPECT_EQ(engine.metrics().count("jobs.completed"), jobs.size());
}

TEST(Engine, CacheHitsOnRepeatedJob)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(10));
    CompileJob job;
    job.name = "repeat";
    job.blocks = buildSyntheticUcc(8, 7);
    job.hw = hw;

    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(opts);

    auto e0 = engine.submit(job);
    auto e1 = engine.submit(job); // identical -> served from cache
    CompileJob other = job;
    TetrisOptions k3;
    k3.lookaheadK = 3; // different options -> distinct key
    other.pipeline = makeTetrisPipeline(k3);
    auto e2 = engine.submit(other);

    auto r0 = e0->get();
    auto r1 = e1->get();
    auto r2 = e2->get();

    EXPECT_EQ(engine.cache().hits(), 1u);
    EXPECT_EQ(engine.cache().misses(), 2u);
    EXPECT_EQ(engine.cache().size(), 2u);
    EXPECT_EQ(r0, r1); // literally the same immutable result
    EXPECT_NE(r0, r2);
    EXPECT_EQ(engine.metrics().count("jobs.deduplicated"), 1u);
    // Only two compilations actually ran.
    EXPECT_EQ(engine.metrics().count("jobs.completed"), 2u);
    EXPECT_TRUE(test::sameImage(*r0, *r1));
}

TEST(Engine, CacheKeySensitivity)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    CompileJob base;
    base.blocks = buildSyntheticUcc(6, 11);
    base.hw = hw;

    uint64_t k0 = Engine::jobKey(base);
    EXPECT_EQ(k0, Engine::jobKey(base)); // stable

    CompileJob tweaked = base;
    TetrisOptions heavy;
    heavy.synthesis.swapWeight = 5.0;
    tweaked.pipeline = makeTetrisPipeline(heavy);
    EXPECT_NE(Engine::jobKey(tweaked), k0);

    CompileJob ph = base;
    ph.pipeline = PipelineRegistry::instance().create("paulihedral");
    EXPECT_NE(Engine::jobKey(ph), k0);

    CompileJob fewer = base;
    fewer.blocks.pop_back();
    EXPECT_NE(Engine::jobKey(fewer), k0);

    CompileJob wider = base;
    wider.hw = std::make_shared<const CouplingGraph>(lineTopology(9));
    EXPECT_NE(Engine::jobKey(wider), k0);

    // The job display name must NOT affect the key.
    CompileJob renamed = base;
    renamed.name = "something-else";
    EXPECT_EQ(Engine::jobKey(renamed), k0);
}

TEST(Engine, SubmittedEntryCarriesItsJobKey)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(6));
    CompileJob job;
    job.blocks = buildSyntheticUcc(4, 7);
    job.hw = hw;
    CompileJob other = job;
    other.pipeline = PipelineRegistry::instance().create("paulihedral");
    const uint64_t key = Engine::jobKey(job);
    ASSERT_NE(Engine::jobKey(other), key);

    // Cached: the first submission creates the entry, the second
    // joins it; a different job gets its own key.
    Engine cached;
    auto first = cached.submit(job);
    auto joined = cached.submit(job);
    auto distinct = cached.submit(other);
    EXPECT_EQ(first, joined);
    EXPECT_EQ(first->key(), key);
    EXPECT_EQ(distinct->key(), Engine::jobKey(other));

    // Transient jobs and an uncached engine get private entries.
    CompileJob transient = job;
    transient.transient = true;
    auto private_entry = cached.submit(transient);
    EXPECT_NE(private_entry, first);
    EXPECT_EQ(private_entry->key(), key);

    EngineOptions opts;
    opts.enableCache = false;
    Engine uncached(opts);
    auto a = uncached.submit(job);
    auto b = uncached.submit(job);
    EXPECT_NE(a, b);
    EXPECT_EQ(a->key(), key);
    EXPECT_EQ(b->key(), key);
    for (const auto &entry : {first, distinct, private_entry, a, b})
        EXPECT_NE(entry->get(), nullptr);
}

TEST(PipelineRegistry, AllBuiltinsRegistered)
{
    auto &reg = PipelineRegistry::instance();
    for (const char *id :
         {"tetris", "paulihedral", "tket-o2", "tket-o3", "pcoast",
          "naive", "max-cancel", "qaoa-2qan", "qaoa-bridge"}) {
        EXPECT_TRUE(reg.contains(id)) << id;
        PipelinePtr p = reg.create(id);
        ASSERT_NE(p, nullptr) << id;
        EXPECT_EQ(p->name(), id);
        // Default-configured instances hash identically.
        EXPECT_EQ(p->optionsHash(), reg.create(id)->optionsHash());
    }
    EXPECT_FALSE(reg.contains("no-such-pipeline"));
    EXPECT_GE(reg.ids().size(), 9u);
}

TEST(PipelineDispatch, MatchesDirectEntryPoints)
{
    CouplingGraph hw = heavyHexTopology(2, 5);
    auto blocks = buildSyntheticUcc(8, 21);
    auto &reg = PipelineRegistry::instance();

    EXPECT_TRUE(test::sameImage(reg.create("tetris")->run(blocks, hw),
                                compileTetris(blocks, hw)));
    EXPECT_TRUE(test::sameImage(reg.create("paulihedral")->run(blocks, hw),
                                compilePaulihedral(blocks, hw)));
    EXPECT_TRUE(test::sameImage(reg.create("tket-o2")->run(blocks, hw),
                                compileTketProxy(blocks, hw, TketFlavor::O2)));
    EXPECT_TRUE(test::sameImage(
        reg.create("tket-o3")->run(blocks, hw),
        compileTketProxy(blocks, hw, TketFlavor::QiskitO3)));
    EXPECT_TRUE(test::sameImage(reg.create("pcoast")->run(blocks, hw),
                                compilePcoastProxy(blocks, hw)));
    EXPECT_TRUE(test::sameImage(reg.create("naive")->run(blocks, hw),
                                compileNaive(blocks, hw)));
    EXPECT_TRUE(test::sameImage(reg.create("max-cancel")->run(blocks, hw),
                                compileMaxCancel(blocks, hw)));

    // The QAOA pipelines want 1-/2-local Z blocks.
    Graph g = Graph::randomWithEdges(10, 16, 3);
    auto qaoa = buildQaoaCostBlocks(g, 0.35);
    EXPECT_TRUE(test::sameImage(reg.create("qaoa-2qan")->run(qaoa, hw),
                                compile2qanProxy(qaoa, hw)));
    EXPECT_TRUE(test::sameImage(reg.create("qaoa-bridge")->run(qaoa, hw),
                                compileQaoaTetris(qaoa, hw)));
}

TEST(PipelineDispatch, EveryPipelineTimesItsStages)
{
    // Each registered pipeline splits its compile time into the three
    // stages: none is negative, together they cover at least 90% of
    // compileSeconds and never exceed it, and building the circuit
    // (synthesis, routing included) takes measurable time.
    CouplingGraph hw = ibmIthaca65();
    const auto ucc = buildSyntheticUcc(20, 1020);
    const QaoaBenchmarkSpec &spec = qaoaBenchmarks()[2]; // Rand-20
    const auto qaoa = buildQaoaCostBlocks(buildQaoaGraph(spec, 100), 0.35);
    auto &reg = PipelineRegistry::instance();
    for (const std::string &id : reg.ids()) {
        SCOPED_TRACE(id);
        const bool is_qaoa = id.rfind("qaoa-", 0) == 0;
        const CompileStats s =
            reg.create(id)->run(is_qaoa ? qaoa : ucc, hw).stats;
        EXPECT_GE(s.scheduleSeconds, 0.0);
        EXPECT_GE(s.synthSeconds, 0.0);
        EXPECT_GE(s.peepholeSeconds, 0.0);
        const double stages =
            s.scheduleSeconds + s.synthSeconds + s.peepholeSeconds;
        EXPECT_LE(stages, s.compileSeconds);
        EXPECT_GE(stages, 0.9 * s.compileSeconds);
        EXPECT_GT(s.synthSeconds, 0.0);
    }
}

TEST(PipelineDispatch, UnroutedNaiveReproducesTableOneCounts)
{
    CouplingGraph hw = lineTopology(12);
    auto blocks = buildSyntheticUcc(10, 77);

    NaiveOptions logical_only;
    logical_only.route = false;
    CompileResult res =
        makeNaivePipeline(logical_only)->run(blocks, hw);
    EXPECT_EQ(res.stats.cnotCount, naiveCnotCount(blocks));
    EXPECT_EQ(res.stats.swapCount, 0u);
    EXPECT_EQ(res.stats.originalCnots, naiveCnotCount(blocks));
}

TEST(Engine, CacheSeparatesPipelinesOverIdenticalInputs)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(10));
    CompileJob tet;
    tet.name = "shared/tetris";
    tet.blocks = buildSyntheticUcc(8, 13);
    tet.hw = hw;
    CompileJob ph = tet;
    ph.name = "shared/ph";
    ph.pipeline = PipelineRegistry::instance().create("paulihedral");

    ASSERT_NE(Engine::jobKey(tet), Engine::jobKey(ph));

    Engine engine(EngineOptions{.numThreads = 2});
    auto r_tet = engine.submit(tet)->get();
    auto r_ph = engine.submit(ph)->get();

    // Two pipelines over identical blocks+device: two cache entries,
    // two compilations, no aliasing.
    EXPECT_EQ(engine.cache().misses(), 2u);
    EXPECT_EQ(engine.cache().hits(), 0u);
    EXPECT_EQ(engine.cache().size(), 2u);
    EXPECT_EQ(engine.metrics().count("jobs.completed"), 2u);
    ASSERT_NE(r_tet, nullptr);
    ASSERT_NE(r_ph, nullptr);
    EXPECT_NE(r_tet, r_ph);
    // ...and the documented distinct results: Tetris's structural
    // cancellation beats PH's per-string synthesis on UCC blocks.
    EXPECT_NE(r_tet->stats.cnotCount, r_ph->stats.cnotCount);
}

TEST(Engine, NameSeparatesKeysWhenOptionHashesCollide)
{
    // pcoast and qaoa-2qan are both parameterless: identical options
    // hashes. The pipeline id keeps their cache keys apart.
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    CompileJob a;
    a.blocks = buildSyntheticUcc(6, 2);
    a.hw = hw;
    a.pipeline = PipelineRegistry::instance().create("pcoast");
    CompileJob b = a;
    b.pipeline = PipelineRegistry::instance().create("qaoa-2qan");

    EXPECT_EQ(a.pipeline->optionsHash(), b.pipeline->optionsHash());
    EXPECT_NE(Engine::jobKey(a), Engine::jobKey(b));
}

TEST(Engine, ProgressCallbackCountsEverySubmission)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));

    // Serialized by the engine, so no extra locking needed here.
    std::vector<std::tuple<size_t, size_t, std::string>> events;
    EngineOptions opts;
    opts.numThreads = 2;
    opts.onJobDone = [&events](size_t done, size_t total,
                               const std::string &name) {
        events.emplace_back(done, total, name);
    };
    Engine engine(opts);

    std::vector<CompileJob> jobs;
    for (int n : {5, 6, 7}) {
        CompileJob job;
        job.name = "p" + std::to_string(n);
        job.blocks = buildSyntheticUcc(n, n);
        job.hw = hw;
        jobs.push_back(std::move(job));
    }
    jobs.push_back(jobs.front()); // duplicate -> dedup, still reported

    auto results = engine.compileAll(jobs);
    ASSERT_EQ(results.size(), 4u);

    ASSERT_EQ(events.size(), 4u);
    size_t max_done = 0;
    for (const auto &[done, total, name] : events) {
        EXPECT_LE(done, total);
        max_done = std::max(max_done, done);
        EXPECT_FALSE(name.empty());
    }
    // Every submission reported exactly once, dedup included.
    EXPECT_EQ(max_done, 4u);
    EXPECT_EQ(std::get<1>(events.back()), 4u);
}

TEST(Engine, StressJobsExceedThreads)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    EngineOptions opts;
    opts.numThreads = 3;
    Engine engine(opts);

    // 32 submissions over 8 distinct workloads: heavy oversubscription
    // plus in-flight dedup pressure.
    std::vector<std::shared_ptr<CompileCache::Entry>> entries;
    for (int round = 0; round < 4; ++round) {
        for (int n = 0; n < 8; ++n) {
            CompileJob job;
            job.name = "stress" + std::to_string(n);
            job.blocks = buildSyntheticUcc(5 + n % 3, 100 + n);
            job.hw = hw;
            entries.push_back(engine.submit(job));
        }
    }
    std::vector<std::shared_ptr<const CompileResult>> results;
    for (const auto &entry : entries)
        results.push_back(entry->get());

    for (const auto &r : results)
        ASSERT_NE(r, nullptr);
    // Repeats of a workload return the cached object.
    for (size_t i = 8; i < results.size(); ++i)
        EXPECT_EQ(results[i], results[i % 8]);
    EXPECT_EQ(engine.cache().misses(), 8u);
    EXPECT_EQ(engine.cache().hits(), 24u);
    EXPECT_EQ(engine.metrics().count("jobs.completed"), 8u);
}

TEST(Engine, SingleThreadFallback)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    EngineOptions opts;
    opts.numThreads = 1;
    Engine engine(opts);
    EXPECT_EQ(engine.numThreads(), 1);

    std::vector<CompileJob> jobs;
    for (int n : {5, 6, 7}) {
        CompileJob job;
        job.blocks = buildSyntheticUcc(n, n);
        job.hw = hw;
        jobs.push_back(std::move(job));
    }
    auto results = engine.compileAll(jobs);
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto ref = compileTetris(jobs[i].blocks, *jobs[i].hw);
        EXPECT_TRUE(test::sameImage(*results[i], ref));
    }
}

TEST(Engine, CacheDisabled)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    CompileJob job;
    job.blocks = buildSyntheticUcc(6, 3);
    job.hw = hw;

    EngineOptions opts;
    opts.numThreads = 2;
    opts.enableCache = false;
    Engine engine(opts);
    auto r0 = engine.submit(job)->get();
    auto r1 = engine.submit(job)->get();
    EXPECT_NE(r0, r1); // compiled twice, distinct objects
    EXPECT_TRUE(test::sameImage(*r0, *r1));
    EXPECT_EQ(engine.cache().hits(), 0u);
    EXPECT_EQ(engine.cache().misses(), 0u);
    EXPECT_EQ(engine.metrics().count("jobs.completed"), 2u);
}

/**
 * A pipeline whose run() blocks on an external gate, making the
 * engine's queue state deterministic for the cancellation tests.
 */
class GatedPipeline final : public Pipeline
{
  public:
    const std::string &name() const override
    {
        static const std::string id = "test-gated";
        return id;
    }

    CompileResult
    run(const std::vector<PauliBlock> &blocks,
        const CouplingGraph &hw) const override
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            started_ = true;
            cv_.notify_all();
            cv_.wait(lock, [this] { return released_; });
        }
        return compileNaive(blocks, hw);
    }

    uint64_t optionsHash() const override { return 0xfade; }

    void
    waitStarted() const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return started_; });
    }

    void
    release() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        released_ = true;
        cv_.notify_all();
    }

  private:
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    mutable bool started_ = false;
    mutable bool released_ = false;
};

TEST(Engine, CancelPendingAbandonsQueuedJobs)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    auto gated = std::make_shared<GatedPipeline>();

    EngineOptions opts;
    opts.numThreads = 1; // single worker: queue order is the run order
    Engine engine(opts);
    EXPECT_FALSE(engine.cancelRequested());

    CompileJob first;
    first.name = "running";
    first.blocks = buildSyntheticUcc(5, 1);
    first.hw = hw;
    first.pipeline = gated;
    auto first_entry = engine.submit(first);

    std::vector<std::shared_ptr<CompileCache::Entry>> pending;
    for (int n : {5, 6, 7}) {
        CompileJob job;
        job.name = "pending" + std::to_string(n);
        job.blocks = buildSyntheticUcc(n, 50 + n);
        job.hw = hw;
        pending.push_back(engine.submit(job));
    }

    // The worker is provably inside job 0; the rest are queued.
    gated->waitStarted();
    engine.cancelPending();
    EXPECT_TRUE(engine.cancelRequested());
    gated->release();

    // The in-flight job completes normally...
    auto first_result = first_entry->get();
    ASSERT_NE(first_result, nullptr);
    EXPECT_FALSE(first_result->cancelled);
    EXPECT_GT(first_result->stats.totalGateCount, 0u);

    // ...every queued job returns a cancelled placeholder, in order.
    for (const auto &entry : pending) {
        auto r = entry->get();
        ASSERT_NE(r, nullptr);
        EXPECT_TRUE(r->cancelled);
        EXPECT_TRUE(r->circuit.empty());
        EXPECT_EQ(r->stats.totalGateCount, 0u);
    }
    EXPECT_EQ(engine.metrics().count("jobs.cancelled"), 3u);
    EXPECT_EQ(engine.metrics().count("jobs.completed"), 1u);

    // Cancelled keys left the cache: a fresh engine recompiles them.
    EXPECT_EQ(engine.cache().size(), 1u);

    // The flag is one-way: later submissions cancel immediately.
    CompileJob late;
    late.name = "late";
    late.blocks = buildSyntheticUcc(6, 99);
    late.hw = hw;
    auto late_result = engine.submit(late)->get();
    ASSERT_NE(late_result, nullptr);
    EXPECT_TRUE(late_result->cancelled);
}

TEST(Engine, CompileAllReturnsInOrderUnderCancellation)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    auto gated = std::make_shared<GatedPipeline>();

    EngineOptions opts;
    opts.numThreads = 1;
    Engine engine(opts);

    std::vector<CompileJob> jobs;
    CompileJob blocker;
    blocker.name = "blocker";
    blocker.blocks = buildSyntheticUcc(5, 2);
    blocker.hw = hw;
    blocker.pipeline = gated;
    jobs.push_back(blocker);
    for (int n : {5, 6, 7, 8}) {
        CompileJob job;
        job.name = "j" + std::to_string(n);
        job.blocks = buildSyntheticUcc(n, 70 + n);
        job.hw = hw;
        jobs.push_back(std::move(job));
    }

    // Cancel while compileAll is blocked on the gated first job.
    std::thread canceller([&] {
        gated->waitStarted();
        engine.cancelPending();
        gated->release();
    });
    auto results = engine.compileAll(std::move(jobs));
    canceller.join();

    ASSERT_EQ(results.size(), 5u);
    ASSERT_NE(results[0], nullptr);
    EXPECT_FALSE(results[0]->cancelled); // already in flight
    for (size_t i = 1; i < results.size(); ++i) {
        ASSERT_NE(results[i], nullptr) << "job " << i;
        EXPECT_TRUE(results[i]->cancelled) << "job " << i;
    }
}

TEST(Engine, StatsSerializeToJson)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    CompileJob job;
    job.blocks = buildSyntheticUcc(6, 9);
    job.hw = hw;
    Engine engine;
    auto result = engine.submit(job)->get();

    JsonWriter w;
    writeJson(w, result->stats);
    const std::string &doc = w.str();
    EXPECT_NE(doc.find("\"cnotCount\""), std::string::npos);
    EXPECT_NE(doc.find("\"scheduleSeconds\""), std::string::npos);
    EXPECT_NE(doc.find("\"synthesis\""), std::string::npos);

    std::string metrics = engine.metrics().toJson();
    EXPECT_NE(metrics.find("\"counts\""), std::string::npos);
    EXPECT_NE(metrics.find("\"jobs.completed\""), std::string::npos);
    EXPECT_NE(metrics.find("\"compile.total\""), std::string::npos);
}

TEST(Metrics, CountersTimersAndScopedTimer)
{
    MetricsRegistry reg;
    reg.addCount("events", 2);
    reg.addCount("events");
    EXPECT_EQ(reg.count("events"), 3u);
    EXPECT_EQ(reg.count("missing"), 0u);

    reg.addSeconds("phase.a", 0.25);
    reg.addSeconds("phase.a", 0.5);
    EXPECT_DOUBLE_EQ(reg.seconds("phase.a"), 0.75);
    EXPECT_DOUBLE_EQ(reg.seconds("missing"), 0.0);

    {
        ScopedTimer t(reg, "phase.b");
    }
    EXPECT_GE(reg.seconds("phase.b"), 0.0);

    reg.clear();
    EXPECT_EQ(reg.count("events"), 0u);
    EXPECT_DOUBLE_EQ(reg.seconds("phase.a"), 0.0);
}

TEST(Metrics, HandlesMergeWithStringKeys)
{
    MetricsRegistry reg;
    // The same logical instrument updated through both paths reads
    // back as one total, from either API.
    MetricsRegistry::Handle events = reg.counterHandle("events");
    reg.addCount(events, 2);
    reg.addCount("events", 3);
    EXPECT_EQ(reg.count("events"), 5u);
    EXPECT_EQ(reg.counts().at("events"), 5u);

    MetricsRegistry::Handle t = reg.timerHandle("phase.hot");
    reg.addSeconds(t, 1.5);
    reg.addSeconds("phase.hot", 0.5);
    EXPECT_NEAR(reg.seconds("phase.hot"), 2.0, 1e-6);
    EXPECT_NEAR(reg.timers().at("phase.hot"), 2.0, 1e-6);

    // Interning is idempotent; the handle survives clear().
    EXPECT_EQ(reg.counterHandle("events"), events);
    reg.clear();
    EXPECT_EQ(reg.count("events"), 0u);
    reg.addCount(events);
    EXPECT_EQ(reg.count("events"), 1u);

    {
        ScopedTimer timer(reg, reg.timerHandle("phase.scoped"));
    }
    EXPECT_GE(reg.seconds("phase.scoped"), 0.0);
}

TEST(Metrics, HandlesStayValidWhileNamesIntern)
{
    // Workers update through handles without the registry mutex
    // while other threads intern new names; the slot a handle names
    // must not move, and finding it must not read state that
    // interning rewrites (the TSan job runs this suite).
    MetricsRegistry reg;
    MetricsRegistry::Handle hot = reg.counterHandle("hot");
    std::thread writer([&] {
        for (int i = 0; i < 20000; ++i)
            reg.addCount(hot);
    });
    for (int i = 0; i < 2000; ++i)
        reg.addCount(reg.counterHandle("cold." + std::to_string(i)));
    writer.join();
    EXPECT_EQ(reg.count("hot"), 20000u);
    EXPECT_EQ(reg.counts().size(), 2001u);
}

TEST(Metrics, HistogramsInRegistry)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("job.latency_ns");
    EXPECT_EQ(&reg.histogram("job.latency_ns"), &h); // stable ref
    h.record(100);
    h.record(200000);

    auto snaps = reg.histogramSnapshots();
    ASSERT_EQ(snaps.count("job.latency_ns"), 1u);
    EXPECT_EQ(snaps["job.latency_ns"].count, 2u);
    EXPECT_EQ(snaps["job.latency_ns"].max, 200000u);
    EXPECT_LE(snaps["job.latency_ns"].p50,
              snaps["job.latency_ns"].p99);

    std::string doc = reg.toJson();
    EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
    EXPECT_NE(doc.find("\"job.latency_ns\""), std::string::npos);
    EXPECT_NE(doc.find("\"p99\""), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\""), std::string::npos);

    reg.clear();
    EXPECT_EQ(reg.histogramSnapshots()["job.latency_ns"].count, 0u);
}

TEST(Metrics, PercentilesSurviveBucketRoundTrip)
{
    // The BENCH_*.json histogram section carries the sparse bucket
    // array and the max; percentiles recomputed from those alone must
    // reproduce the emitted p50/p90/p99 exactly. That holds because
    // percentile() is a pure function of the bucket counts and max.
    Histogram original;
    uint64_t state = 88172645463325252ull;
    for (int i = 0; i < 5000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        original.record(state % 10000000);
    }

    // Each sample is rebuilt at its bucket's upper bound, capped at
    // the original max (which stays in the top bucket).
    Histogram rebuilt;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
        uint64_t n = original.bucketCount(i);
        for (uint64_t k = 0; k < n; ++k)
            rebuilt.record(std::min(Histogram::bucketUpperBound(i),
                                    original.max()));
    }

    EXPECT_EQ(rebuilt.count(), original.count());
    EXPECT_EQ(rebuilt.max(), original.max());
    for (double p : {0.5, 0.9, 0.99}) {
        EXPECT_EQ(rebuilt.percentile(p), original.percentile(p))
            << "p=" << p;
    }
}

TEST(Engine, LatencyHistogramsCoverEveryDequeuedJob)
{
    Engine engine;
    auto results = engine.compileAll(mixedJobs());
    ASSERT_FALSE(results.empty());

    auto snaps = engine.metrics().histogramSnapshots();
    const auto &latency = snaps.at("job.latency_ns");
    const auto &queue_wait = snaps.at("job.queue_wait_ns");
    // One sample per dequeued (non-deduplicated) submission.
    const uint64_t dequeued =
        engine.metrics().count("jobs.submitted") -
        engine.metrics().count("jobs.deduplicated");
    EXPECT_EQ(latency.count, dequeued);
    EXPECT_EQ(queue_wait.count, dequeued);
    EXPECT_GT(latency.sum, 0u);
    EXPECT_LE(latency.p50, latency.p90);
    EXPECT_LE(latency.p90, latency.p99);

    // The trajectory JSON exposes the same distributions.
    std::string doc = engine.metrics().toJson();
    EXPECT_NE(doc.find("\"job.latency_ns\""), std::string::npos);
    EXPECT_NE(doc.find("\"job.queue_wait_ns\""), std::string::npos);
    // And the cache lock-wait histogram is wired (possibly empty).
    EXPECT_NE(doc.find("\"cache.lock_wait_ns\""), std::string::npos);
}

TEST(Json, WriterBasics)
{
    JsonWriter w;
    w.beginObject();
    w.key("a").value(1);
    w.key("b").beginArray().value("x\"y").value(2.5).value(true).null();
    w.endArray();
    w.key("c").beginObject().key("d").value(uint64_t{7}).endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"a\":1,\"b\":[\"x\\\"y\",2.5,true,null],"
              "\"c\":{\"d\":7}}");
}

} // namespace
} // namespace tetris
