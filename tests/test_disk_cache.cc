/**
 * @file
 * DiskCache tests: store/load round-trips through the sharded .tca
 * layout, the hardened directory handling (creation, empty paths,
 * unwritable roots degrade to disabled), environment configuration,
 * corruption-as-miss semantics (bit flips, truncation, foreign bytes,
 * an empty file, a directory at the artifact's path),
 * verify-before-store (a miscompile never lands on disk;
 * verify.blocked_write accounting), LRU-by-mtime trim, engine
 * integration (warm runs skip compilation entirely, teardown applies
 * the eviction budget), and two engines hammering one shared store
 * concurrently.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "chem/uccsd.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"

namespace fs = std::filesystem;

namespace tetris
{
namespace
{

/** Fresh scratch directory per test, removed on teardown. */
class DiskCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::path(::testing::TempDir()) /
                ("tetris_dc_" + std::string(::testing::UnitTest::
                                                GetInstance()
                                                    ->current_test_info()
                                                    ->name()));
        fs::remove_all(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    CompileResult
    smallResult(int n, int seed)
    {
        return compileTetris(buildSyntheticUcc(n, seed),
                             lineTopology(10));
    }

    fs::path root_;
};

TEST_F(DiskCacheTest, StoreLoadRoundTripThroughShardedLayout)
{
    auto cache = DiskCache::open((root_ / "a" / "b").string());
    ASSERT_NE(cache, nullptr); // created recursively
    EXPECT_TRUE(fs::is_directory(root_ / "a" / "b"));

    const uint64_t key = 0xfeed0000beef1234ull;
    CompileResult result = smallResult(6, 3);
    ASSERT_TRUE(cache->store(key, result));
    EXPECT_EQ(cache->writes(), 1u);

    // Sharded by the top byte of the key, 16-hex-digit file name.
    fs::path expect =
        root_ / "a" / "b" / "fe" / "feed0000beef1234.tca";
    EXPECT_EQ(cache->pathFor(key), expect.string());
    EXPECT_TRUE(fs::is_regular_file(expect));

    auto loaded = cache->load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(cache->hits(), 1u);
    EXPECT_EQ(loaded->stats.cnotCount, result.stats.cnotCount);
    EXPECT_EQ(loaded->stats.depth, result.stats.depth);
    EXPECT_EQ(loaded->circuit.metrics(), result.circuit.metrics());
    EXPECT_EQ(loaded->finalLayout, result.finalLayout);
    EXPECT_EQ(loaded->blockOrder, result.blockOrder);

    EXPECT_EQ(cache->load(key + 1), nullptr); // absent key
    EXPECT_EQ(cache->misses(), 1u);

    DiskCache::Usage u = cache->usage();
    EXPECT_EQ(u.entries, 1u);
    EXPECT_GT(u.bytes, 0u);
}

TEST_F(DiskCacheTest, OpenRejectsEmptyAndBlankPaths)
{
    EXPECT_EQ(DiskCache::open(""), nullptr);
    EXPECT_EQ(DiskCache::open("   "), nullptr);
    EXPECT_EQ(DiskCache::open(" \t\n"), nullptr);
}

TEST_F(DiskCacheTest, UnusableDirectoryDegradesToDisabled)
{
    // A regular file where a directory is needed: create_directories
    // fails, open() must warn and return null, never abort.
    fs::create_directories(root_);
    std::ofstream(root_ / "blocker") << "file";
    EXPECT_EQ(DiskCache::open((root_ / "blocker").string()), nullptr);
    EXPECT_EQ(
        DiskCache::open((root_ / "blocker" / "nested").string()),
        nullptr);
}

TEST_F(DiskCacheTest, OpenFromEnvHonorsBothVariables)
{
    ::unsetenv("TETRIS_CACHE_DIR");
    EXPECT_EQ(DiskCache::openFromEnv(), nullptr);
    ::setenv("TETRIS_CACHE_DIR", "", 1);
    EXPECT_EQ(DiskCache::openFromEnv(), nullptr);

    ::setenv("TETRIS_CACHE_DIR", root_.c_str(), 1);
    ::setenv("TETRIS_CACHE_MAX_BYTES", "123456", 1);
    auto cache = DiskCache::openFromEnv();
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->maxBytes(), 123456u);
    EXPECT_EQ(fs::path(cache->dir()), fs::absolute(root_));

    // Garbage budgets are ignored (unlimited), not fatal.
    for (const char *bad : {"garbage", "-5", "12abc", "1.5"}) {
        ::setenv("TETRIS_CACHE_MAX_BYTES", bad, 1);
        auto c = DiskCache::openFromEnv();
        ASSERT_NE(c, nullptr) << bad;
        EXPECT_EQ(c->maxBytes(), 0u) << bad;
    }
    ::unsetenv("TETRIS_CACHE_DIR");
    ::unsetenv("TETRIS_CACHE_MAX_BYTES");
}

TEST_F(DiskCacheTest, CorruptedAndTruncatedFilesReadAsMiss)
{
    auto cache = DiskCache::open(root_.string());
    ASSERT_NE(cache, nullptr);
    const uint64_t key = 42;
    CompileResult result = smallResult(6, 9);
    ASSERT_TRUE(cache->store(key, result));
    fs::path path = cache->pathFor(key);

    // Bit flip in the middle of the artifact.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
        f.put('\x7f');
    }
    EXPECT_EQ(cache->load(key), nullptr);
    EXPECT_EQ(cache->misses(), 1u);

    // Truncation (as after a crash without the atomic rename).
    ASSERT_TRUE(cache->store(key, result));
    fs::resize_file(path, fs::file_size(path) / 3);
    EXPECT_EQ(cache->load(key), nullptr);

    // Entirely foreign bytes.
    std::ofstream(path, std::ios::trunc) << "deliberately corrupted";
    EXPECT_EQ(cache->load(key), nullptr);
    EXPECT_EQ(cache->misses(), 3u);

    // An empty file.
    std::ofstream(path, std::ios::trunc).close();
    ASSERT_EQ(fs::file_size(path), 0u);
    EXPECT_EQ(cache->load(key), nullptr);
    EXPECT_EQ(cache->misses(), 4u);

    // A directory where the artifact should be.
    fs::remove(path);
    fs::create_directory(path);
    EXPECT_EQ(cache->load(key), nullptr);
    EXPECT_EQ(cache->misses(), 5u);
    EXPECT_EQ(cache->hits(), 0u);
    fs::remove(path);

    // A rewrite heals the entry.
    ASSERT_TRUE(cache->store(key, result));
    auto healed = cache->load(key);
    ASSERT_NE(healed, nullptr);
    EXPECT_EQ(healed->stats.cnotCount, result.stats.cnotCount);
}

TEST_F(DiskCacheTest, TrimEvictsOldestMtimeFirst)
{
    auto cache = DiskCache::open(root_.string());
    ASSERT_NE(cache, nullptr);
    CompileResult result = smallResult(6, 4);

    auto now = fs::file_time_type::clock::now();
    using std::chrono::hours;
    ASSERT_TRUE(cache->store(1, result));
    ASSERT_TRUE(cache->store(2, result));
    ASSERT_TRUE(cache->store(3, result));
    fs::last_write_time(cache->pathFor(1), now - hours(3));
    fs::last_write_time(cache->pathFor(2), now - hours(1));
    fs::last_write_time(cache->pathFor(3), now - hours(2));

    DiskCache::Usage before = cache->usage();
    ASSERT_EQ(before.entries, 3u);

    // Budget for exactly two artifacts: the oldest (key 1) must go.
    uint64_t two_entries = before.bytes - before.bytes / 3;
    EXPECT_EQ(cache->trim(two_entries), 1u);
    EXPECT_FALSE(fs::exists(cache->pathFor(1)));
    EXPECT_TRUE(fs::exists(cache->pathFor(2)));
    EXPECT_TRUE(fs::exists(cache->pathFor(3)));

    // Under budget: no-op.
    EXPECT_EQ(cache->trim(uint64_t{1} << 40), 0u);
    EXPECT_EQ(cache->usage().entries, 2u);

    // A load refreshes mtime, protecting the entry from the next
    // trim (LRU, not FIFO): key 3 is now newer than key 2.
    ASSERT_NE(cache->load(3), nullptr);
    uint64_t one_entry = before.bytes / 3;
    EXPECT_EQ(cache->trim(one_entry), 1u);
    EXPECT_TRUE(fs::exists(cache->pathFor(3)));
    EXPECT_FALSE(fs::exists(cache->pathFor(2)));

    cache->clear();
    EXPECT_EQ(cache->usage().entries, 0u);
    EXPECT_EQ(cache->usage().bytes, 0u);
}

TEST_F(DiskCacheTest, EngineWarmRunSkipsCompilationEntirely)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(10));
    auto make_jobs = [&] {
        std::vector<CompileJob> jobs;
        for (int n : {5, 6, 7}) {
            CompileJob job;
            job.name = "warm" + std::to_string(n);
            job.blocks = buildSyntheticUcc(n, 100 + n);
            job.hw = hw;
            jobs.push_back(std::move(job));
        }
        return jobs;
    };

    std::vector<std::shared_ptr<const CompileResult>> cold;
    auto cold_disk = DiskCache::open(root_.string());
    ASSERT_NE(cold_disk, nullptr);
    {
        EngineOptions opts;
        opts.numThreads = 2;
        opts.diskCache = cold_disk;
        Engine engine(opts);
        cold = engine.compileAll(make_jobs());
        EXPECT_EQ(engine.metrics().count("jobs.completed"), 3u);
        EXPECT_EQ(cold_disk->hits(), 0u);
    }
    // Write-behind settles by engine teardown, not by compileAll.
    EXPECT_EQ(cold_disk->writes(), 3u);

    // Fresh engine, fresh DiskCache handle, same directory: every
    // job must deserialize instead of compiling.
    EngineOptions opts;
    opts.numThreads = 2;
    opts.diskCache = DiskCache::open(root_.string());
    Engine engine(opts);
    auto warm = engine.compileAll(make_jobs());
    EXPECT_EQ(engine.metrics().count("jobs.completed"), 0u);
    EXPECT_EQ(engine.metrics().count("jobs.disk_hits"), 3u);
    EXPECT_EQ(opts.diskCache->hits(), 3u);
    EXPECT_EQ(opts.diskCache->misses(), 0u);

    ASSERT_EQ(warm.size(), cold.size());
    for (size_t i = 0; i < warm.size(); ++i) {
        ASSERT_NE(warm[i], nullptr);
        EXPECT_EQ(warm[i]->stats.cnotCount, cold[i]->stats.cnotCount);
        EXPECT_EQ(warm[i]->stats.depth, cold[i]->stats.depth);
        EXPECT_EQ(warm[i]->circuit.metrics(), cold[i]->circuit.metrics());
        EXPECT_EQ(warm[i]->finalLayout, cold[i]->finalLayout);
        EXPECT_EQ(warm[i]->blockOrder, cold[i]->blockOrder);
    }
}

/**
 * A deliberately wrong compiler: compiles for real, then flips one
 * rotation's sign — exactly the class of miscompile the verifier's
 * mutation matrix proves both checkers reject.
 */
class MiscompilingPipeline final : public Pipeline
{
  public:
    const std::string &name() const override
    {
        static const std::string id = "test-miscompile";
        return id;
    }

    CompileResult
    run(const std::vector<PauliBlock> &blocks,
        const CouplingGraph &hw) const override
    {
        CompileResult res = compileTetris(blocks, hw);
        Circuit circ(res.circuit.numQubits());
        bool flipped = false;
        for (Gate g : res.circuit.gates()) {
            if (!flipped && g.kind == GateKind::RZ &&
                std::abs(g.angle) > 0.05) {
                g.angle = -g.angle;
                flipped = true;
            }
            circ.add(g);
        }
        res.circuit = std::move(circ);
        return res;
    }

    uint64_t optionsHash() const override { return 0xbadc0de; }
};

TEST_F(DiskCacheTest, VerifyBeforeStoreKeepsBadCompilesOffDisk)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    CompileJob job;
    job.name = "miscompiled";
    job.blocks = buildSyntheticUcc(6, 21);
    job.hw = hw;
    job.pipeline = std::make_shared<MiscompilingPipeline>();
    const uint64_t key = Engine::jobKey(job);

    auto disk = DiskCache::open(root_.string());
    ASSERT_NE(disk, nullptr);
    {
        EngineOptions opts;
        opts.numThreads = 2;
        opts.diskCache = disk;
        opts.verify = true; // verifyBeforeStore defaults to true
        Engine engine(opts);
        auto result = engine.wait(engine.submit(job));
        // The bad result is still published to its waiters...
        ASSERT_NE(result, nullptr);
        EXPECT_GT(result->stats.totalGateCount, 0u);
    }
    // ...but never reached the store (write-behind settles by
    // engine teardown).
    EXPECT_EQ(disk->writes(), 0u);
    EXPECT_EQ(disk->load(key), nullptr);

    // Opting out (verifyBeforeStore = false) restores the old
    // behavior: the artifact lands despite the failed verification.
    {
        EngineOptions opts;
        opts.numThreads = 2;
        opts.diskCache = disk;
        opts.verify = true;
        opts.verifyBeforeStore = false;
        Engine engine(opts);
        engine.wait(engine.submit(job));
    }
    EXPECT_EQ(disk->writes(), 1u);
    EXPECT_NE(disk->load(key), nullptr);
}

TEST_F(DiskCacheTest, VerifyBeforeStoreCountsBlockedWrites)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(8));
    CompileJob bad;
    bad.name = "blocked";
    bad.blocks = buildSyntheticUcc(6, 22);
    bad.hw = hw;
    bad.pipeline = std::make_shared<MiscompilingPipeline>();
    CompileJob good;
    good.name = "clean";
    good.blocks = buildSyntheticUcc(6, 23);
    good.hw = hw;

    auto disk = DiskCache::open(root_.string());
    ASSERT_NE(disk, nullptr);
    EngineOptions opts;
    opts.numThreads = 2;
    opts.diskCache = disk;
    opts.verify = true;
    Engine engine(opts);
    engine.compileAll({bad, good});
    engine.drain(); // write-behind persists settle

    EXPECT_EQ(engine.metrics().count("verify.fail"), 1u);
    EXPECT_EQ(engine.metrics().count("verify.pass"), 1u);
    EXPECT_EQ(engine.metrics().count("verify.blocked_write"), 1u);
    // Exactly the clean job was persisted.
    EXPECT_EQ(disk->usage().entries, 1u);
    EXPECT_NE(disk->load(Engine::jobKey(good)), nullptr);
    EXPECT_EQ(disk->load(Engine::jobKey(bad)), nullptr);
}

TEST_F(DiskCacheTest, EngineTeardownAppliesEvictionBudget)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(10));
    auto disk = DiskCache::open(root_.string(), /*max_bytes=*/1);
    ASSERT_NE(disk, nullptr);
    {
        EngineOptions opts;
        opts.numThreads = 2;
        opts.diskCache = disk;
        Engine engine(opts);
        CompileJob job;
        job.name = "evict";
        job.blocks = buildSyntheticUcc(6, 1);
        job.hw = hw;
        engine.wait(engine.submit(job));
    }
    // Written during the run; evicted when the engine drained.
    EXPECT_EQ(disk->writes(), 1u);
    EXPECT_EQ(disk->usage().entries, 0u);
}

TEST_F(DiskCacheTest, ConcurrentEnginesShareOneStore)
{
    auto hw = std::make_shared<const CouplingGraph>(lineTopology(10));
    auto make_jobs = [&] {
        std::vector<CompileJob> jobs;
        for (int n : {5, 6, 7, 8}) {
            CompileJob job;
            job.name = "shared" + std::to_string(n);
            job.blocks = buildSyntheticUcc(n, 200 + n);
            job.hw = hw;
            jobs.push_back(std::move(job));
        }
        return jobs;
    };

    // Two engines race on the same directory: both may compile and
    // both may rename the same artifact — last rename wins and every
    // result must stay correct.
    std::vector<std::shared_ptr<const CompileResult>> ra, rb;
    {
        EngineOptions oa, ob;
        oa.numThreads = ob.numThreads = 2;
        oa.diskCache = DiskCache::open(root_.string());
        ob.diskCache = DiskCache::open(root_.string());
        ASSERT_NE(oa.diskCache, nullptr);
        ASSERT_NE(ob.diskCache, nullptr);
        Engine ea(oa), eb(ob);
        std::thread ta([&] { ra = ea.compileAll(make_jobs()); });
        std::thread tb([&] { rb = eb.compileAll(make_jobs()); });
        ta.join();
        tb.join();
    }
    ASSERT_EQ(ra.size(), 4u);
    ASSERT_EQ(rb.size(), 4u);
    for (size_t i = 0; i < ra.size(); ++i) {
        ASSERT_NE(ra[i], nullptr);
        ASSERT_NE(rb[i], nullptr);
        EXPECT_EQ(ra[i]->stats.cnotCount, rb[i]->stats.cnotCount);
        EXPECT_EQ(ra[i]->stats.depth, rb[i]->stats.depth);
    }
    EXPECT_EQ(DiskCache::open(root_.string())->usage().entries, 4u);

    // A third engine sees a fully warm store.
    EngineOptions oc;
    oc.numThreads = 2;
    oc.diskCache = DiskCache::open(root_.string());
    Engine ec(oc);
    auto rc = ec.compileAll(make_jobs());
    EXPECT_EQ(ec.metrics().count("jobs.completed"), 0u);
    EXPECT_EQ(ec.metrics().count("jobs.disk_hits"), 4u);
    for (size_t i = 0; i < rc.size(); ++i)
        EXPECT_EQ(rc[i]->stats.cnotCount, ra[i]->stats.cnotCount);
}

} // namespace
} // namespace tetris
