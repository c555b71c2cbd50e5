/**
 * @file
 * Caching-path performance microbenchmark -> BENCH_perf.json.
 *
 * Unlike the fig/table binaries this does not regenerate a paper
 * artifact; it measures the infrastructure the bench sweeps run on:
 *
 *  1. In-memory compile-cache hit throughput and lock-wait time
 *     across thread counts (1-64) and shard counts ({1, default,
 *     64}), on a hit-heavy workload — the access pattern of a warm
 *     sweep. This is the measurement behind the sharded-cache
 *     design: shards > 1 must beat the single-mutex configuration
 *     once >= 8 threads hammer the table.
 *  2. Packed bit-plane Pauli kernels (commutation, in-place product,
 *     tableau conjugation) against the byte-per-qubit reference in
 *     pauli_ref, at 16/64/256 qubits — the speedup claim behind the
 *     data-oriented PauliString representation, reported as a
 *     kernel rows bench_diff.py trends.
 *  3. Persistent-store artifact load latency: cold (first load per
 *     key) vs warm (repeat loads) through the zero-copy mmap path,
 *     plus the buffered fallback (TETRIS_DISK_MMAP=0) for
 *     comparison.
 *  4. An engine-level cold/warm sweep against a private store: the
 *     warm run must recompile nothing and serve every hit from the
 *     store, or the binary exits 1.
 *  5. The ns/op of each metrics primitive and of the obs plane
 *     (disarmed event log, /metrics scrape under load and idle).
 *
 * TETRIS_BENCH_QUICK=1 shrinks every dimension for CI. BENCH_perf.json
 * uses bench_util.hh's shared layout: one row per cache sweep (the
 * default shard count is always swept, as `shards=default`), kernel,
 * load phase, engine phase and overhead section.
 * scripts/bench_diff.py warns when two runs' timings drift apart.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "circuit/gate.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "engine/compile_cache.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/trace.hh"
#include "obs/event_log.hh"
#include "obs/obs_server.hh"
#include "pauli/pauli_ref.hh"
#include "serialize/mmap_file.hh"
#include "verify/pauli_frame.hh"

namespace fs = std::filesystem;

using namespace tetris;
using namespace tetris::bench;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Well-spread 64-bit keys, as Engine::jobKey would produce. */
uint64_t
keyAt(int i)
{
    return fnvMix(kFnvOffset, i);
}

// ---- 1. cache hit throughput ---------------------------------------

struct SweepRow
{
    std::string name;
    int shards = 0;
    int threads = 0;
    uint64_t ops = 0;
    double seconds = 0.0;
    double opsPerSec = 0.0;
    uint64_t lockWaitNs = 0;
};

/**
 * Hammer one CompileCache configuration with a pure-hit workload:
 * every key is pre-published, so each operation is one lock-free
 * probe of the shard's published read view — the path a warm sweep's
 * deduplicated submissions take. No mutex is ever touched, so
 * lock_wait_ns must report exactly zero (smoke.sh asserts this).
 */
SweepRow
runCacheSweep(int shards, int threads, uint64_t ops_per_thread)
{
    constexpr int kKeys = 256;
    CompileCache cache(shards);
    auto dummy = std::make_shared<const CompileResult>();
    for (int k = 0; k < kKeys; ++k) {
        bool is_new = false;
        auto entry = cache.acquire(keyAt(k), is_new);
        if (is_new)
            entry->publish(dummy);
    }

    std::atomic<bool> go{false};
    std::atomic<uint64_t> misses{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            // Per-thread stride so threads do not march in lockstep
            // over the same shard sequence.
            uint64_t local_misses = 0;
            for (uint64_t i = 0; i < ops_per_thread; ++i) {
                int k = static_cast<int>(
                    (i * 7 + static_cast<uint64_t>(t) * 13) % kKeys);
                bool is_new = true;
                cache.acquire(keyAt(k), is_new);
                if (is_new)
                    ++local_misses;
            }
            misses.fetch_add(local_misses);
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    double elapsed = secondsSince(t0);

    if (misses.load() != 0)
        std::fprintf(stderr,
                     "warn: hit-only sweep observed %llu misses\n",
                     static_cast<unsigned long long>(misses.load()));

    SweepRow row;
    row.shards = cache.shardCount();
    row.threads = threads;
    row.ops = ops_per_thread * static_cast<uint64_t>(threads);
    row.seconds = elapsed;
    row.opsPerSec =
        elapsed > 0.0 ? static_cast<double>(row.ops) / elapsed : 0.0;
    row.lockWaitNs = cache.lockWaitNs();
    return row;
}

// ---- 2. packed vs byte-wise Pauli kernels --------------------------

/** Defeats dead-code elimination of the benchmark loops. */
volatile uint64_t g_pauli_sink = 0;

/** ns/op of `body` (which returns a value folded into the sink). */
template <typename F>
double
nsPerOp(uint64_t iters, F &&body)
{
    uint64_t acc = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < iters; ++i)
        acc += body(i);
    double ns = secondsSince(t0) * 1e9 / static_cast<double>(iters);
    g_pauli_sink = acc;
    return ns;
}

pauli_ref::ByteString
randomByteString(Rng &rng, size_t n)
{
    static constexpr PauliOp kOps[4] = {PauliOp::I, PauliOp::X,
                                        PauliOp::Y, PauliOp::Z};
    pauli_ref::ByteString s(n);
    for (size_t q = 0; q < n; ++q)
        s[q] = kOps[rng.uniformInt(0, 3)];
    return s;
}

struct KernelRow
{
    const char *kernel;
    int qubits;
    uint64_t iters;
    double packedNs = 0.0;
    double byteNs = 0.0;

    double speedup() const
    {
        return packedNs > 0.0 ? byteNs / packedNs : 0.0;
    }
};

/**
 * Time the three hot Pauli kernels — commutation check, in-place
 * string product, and tableau (frame) conjugation — on the packed
 * bit-plane representation against the byte-per-qubit reference, on
 * identical random inputs. This is the measurement behind the
 * data-oriented repacking: the packed kernels must not merely win,
 * they must win by the word-parallelism factor once strings span
 * multiple words.
 */
std::vector<KernelRow>
runPauliKernels(bool quick)
{
    constexpr size_t kPairs = 64;
    const uint64_t iters = quick ? 50000 : 500000;
    const int conj_gates = 256;
    const uint64_t conj_rounds = quick ? 50 : 400;

    std::vector<KernelRow> rows;
    for (int qubits : {16, 64, 256}) {
        Rng rng(0x7e7215u + static_cast<uint64_t>(qubits));
        const size_t n = static_cast<size_t>(qubits);
        std::vector<pauli_ref::ByteString> byte_a, byte_b;
        std::vector<PauliString> packed_a, packed_b;
        for (size_t p = 0; p < kPairs; ++p) {
            byte_a.push_back(randomByteString(rng, n));
            byte_b.push_back(randomByteString(rng, n));
            packed_a.emplace_back(byte_a.back());
            packed_b.emplace_back(byte_b.back());
        }

        KernelRow commute{"commute", qubits, iters};
        commute.packedNs = nsPerOp(iters, [&](uint64_t i) {
            const size_t p = i % kPairs;
            return static_cast<uint64_t>(
                packed_a[p].commutesWith(packed_b[p]));
        });
        commute.byteNs = nsPerOp(iters, [&](uint64_t i) {
            const size_t p = i % kPairs;
            return static_cast<uint64_t>(
                pauli_ref::commutes(byte_a[p], byte_b[p]));
        });
        rows.push_back(commute);

        // In-place products so both sides measure the kernel loop,
        // not the allocator. Repeated application keeps the scratch
        // operands valid Pauli strings, so the work never degrades.
        KernelRow product{"product", qubits, iters};
        std::vector<PauliString> packed_scratch = packed_b;
        product.packedNs = nsPerOp(iters, [&](uint64_t i) {
            const size_t p = i % kPairs;
            return static_cast<uint64_t>(
                packed_scratch[p].mulLeft(packed_a[p]));
        });
        std::vector<pauli_ref::ByteString> byte_scratch = byte_b;
        product.byteNs = nsPerOp(iters, [&](uint64_t i) {
            const size_t p = i % kPairs;
            return static_cast<uint64_t>(
                pauli_ref::mulInto(byte_a[p], byte_scratch[p]));
        });
        rows.push_back(product);

        // Tableau conjugation: push one random Clifford sequence
        // through the packed PauliFrame and the byte-wise ByteFrame.
        std::vector<Gate> gates;
        gates.reserve(static_cast<size_t>(conj_gates));
        for (int g = 0; g < conj_gates; ++g) {
            const int q0 = rng.uniformInt(0, qubits - 1);
            switch (rng.uniformInt(0, 2)) {
              case 0:
                gates.push_back(Gate::h(q0));
                break;
              case 1:
                gates.push_back(Gate::s(q0));
                break;
              default: {
                int q1 = rng.uniformInt(0, qubits - 1);
                if (q1 == q0)
                    q1 = (q1 + 1) % qubits;
                gates.push_back(Gate::cx(q0, q1));
                break;
              }
            }
        }

        const uint64_t conj_ops =
            conj_rounds * static_cast<uint64_t>(conj_gates);
        KernelRow conj{"conjugate", qubits, conj_ops};
        PauliFrame frame(qubits);
        conj.packedNs = nsPerOp(conj_rounds, [&](uint64_t) {
                            uint64_t acc = 0;
                            for (const Gate &g : gates)
                                acc += static_cast<uint64_t>(
                                    frame.applyGate(g));
                            return acc;
                        }) /
                        static_cast<double>(conj_gates);
        pauli_ref::ByteFrame byte_frame(qubits);
        conj.byteNs = nsPerOp(conj_rounds, [&](uint64_t) {
                          uint64_t acc = 0;
                          for (const Gate &g : gates) {
                              if (g.kind == GateKind::H)
                                  byte_frame.applyH(g.q0);
                              else if (g.kind == GateKind::S)
                                  byte_frame.applyS(g.q0);
                              else
                                  byte_frame.applyCx(g.q0, g.q1);
                              ++acc;
                          }
                          return acc;
                      }) /
                      static_cast<double>(conj_gates);
        rows.push_back(conj);
    }
    return rows;
}

// ---- 3. artifact load latency --------------------------------------

struct LoadStats
{
    uint64_t loads = 0;
    double avgNs = 0.0;
    /** Loads served by the mmap path / the buffered fallback. */
    uint64_t mmapLoads = 0;
    uint64_t bufferedLoads = 0;
};

LoadStats
timeLoads(const DiskCache &store, const std::vector<uint64_t> &keys,
          int rounds)
{
    LoadStats s;
    const uint64_t mmap0 = store.mmapLoads();
    const uint64_t buffered0 = store.bufferedLoads();
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (uint64_t key : keys) {
            auto result = store.load(key);
            if (result == nullptr)
                std::fprintf(stderr,
                             "warn: unexpected miss for key %llx\n",
                             static_cast<unsigned long long>(key));
            ++s.loads;
        }
    }
    double elapsed = secondsSince(t0);
    s.avgNs = s.loads > 0 ? elapsed * 1e9 / static_cast<double>(s.loads)
                          : 0.0;
    s.mmapLoads = store.mmapLoads() - mmap0;
    s.bufferedLoads = store.bufferedLoads() - buffered0;
    return s;
}

/** One engine run of section 4. */
struct EngineRun
{
    const char *name;
    double seconds = 0.0;
    uint64_t completed = 0;
    uint64_t diskHits = 0;
    uint64_t writes = 0;
    uint64_t mmapLoads = 0;
    uint64_t bufferedLoads = 0;
    uint64_t shardCount = 0;
    uint64_t lockWaitNs = 0;
};

} // namespace

int
main()
{
    const bool quick = quickMode();
    printBanner("perf microbench",
                quick ? "caching-path throughput/latency (quick preset)"
                      : "caching-path throughput/latency (full preset)");

    // ---- 1. in-memory cache: shards x threads sweep ----------------
    // Shard request 0 resolves to the default; sweeping it under a
    // fixed name keeps the row set the same on every machine.
    const int default_shards = CompileCache::resolveShardCount(0);
    const std::pair<const char *, int> shard_set[] = {
        {"1", 1}, {"default", 0}, {"64", 64}};
    std::vector<int> thread_set =
        quick ? std::vector<int>{1, 2, 4, 8}
              : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
    const uint64_t ops_per_thread = quick ? 20000 : 100000;

    std::printf("cache-hit throughput (%d keys, %llu ops/thread):\n",
                256, static_cast<unsigned long long>(ops_per_thread));
    std::vector<SweepRow> sweeps;
    for (const auto &[label, shards] : shard_set) {
        for (int threads : thread_set) {
            SweepRow row = runCacheSweep(shards, threads,
                                         ops_per_thread);
            row.name = std::string("cache/shards=") + label +
                       "/threads=" + std::to_string(threads);
            std::printf(
                "  shards=%-4d threads=%-3d  %9.2f Mops/s  "
                "lock-wait %8.3f ms\n",
                row.shards, row.threads, row.opsPerSec / 1e6,
                static_cast<double>(row.lockWaitNs) / 1e6);
            sweeps.push_back(std::move(row));
        }
    }

    // ---- 2. packed vs byte-wise Pauli kernels ----------------------
    std::printf("\npauli kernels (packed vs byte-wise):\n");
    const std::vector<KernelRow> kernels = runPauliKernels(quick);
    for (const KernelRow &row : kernels) {
        std::printf("  %-9s n=%-4d packed %8.2f ns  byte %9.2f ns"
                    "  speedup %6.1fx\n",
                    row.kernel, row.qubits, row.packedNs, row.byteNs,
                    row.speedup());
    }

    // ---- private artifact store for sections 3 and 4 ---------------
    fs::path store_root =
        fs::temp_directory_path() /
        ("tetris-perf-" + std::to_string(::getpid()));
    std::error_code ec;
    fs::remove_all(store_root, ec);

    // ---- 3. artifact load latency: cold / warm / buffered ----------
    const int entries = quick ? 8 : 32;
    uint64_t bytes_total = 0;
    std::pair<const char *, LoadStats> loads[3] = {
        {"load/cold", {}}, {"load/warm", {}}, {"load/buffered", {}}};
    {
        auto store = DiskCache::open(store_root.string());
        if (store == nullptr) {
            std::fprintf(stderr,
                         "fatal: cannot open perf store at %s\n",
                         store_root.string().c_str());
            return 1;
        }
        const int warm_rounds = quick ? 8 : 32;
        CompileResult sample =
            compileTetris(buildSyntheticUcc(8, 7), lineTopology(12));
        std::vector<uint64_t> keys;
        for (int i = 0; i < entries; ++i) {
            keys.push_back(keyAt(1000 + i));
            store->store(keys.back(), sample);
        }
        bytes_total = store->usage().bytes;

        loads[0].second = timeLoads(*store, keys, 1);
        loads[1].second = timeLoads(*store, keys, warm_rounds);

        // Buffered fallback for comparison: the env toggle is read
        // per load(), so flipping it mid-process is supported.
        ::setenv("TETRIS_DISK_MMAP", "0", 1);
        loads[2].second = timeLoads(*store, keys, warm_rounds);
        ::unsetenv("TETRIS_DISK_MMAP");

        std::printf(
            "\nartifact load (%d entries, %llu bytes):\n"
            "  cold     %9.0f ns/load\n"
            "  warm     %9.0f ns/load (mmap)\n"
            "  buffered %9.0f ns/load (fallback)\n",
            entries, static_cast<unsigned long long>(bytes_total),
            loads[0].second.avgNs, loads[1].second.avgNs,
            loads[2].second.avgNs);
        store->clear();
    }

    // ---- 4. engine-level cold/warm sweep ---------------------------
    std::vector<EngineRun> engine_runs;
    {
        auto make_jobs = [&] {
            std::vector<CompileJob> jobs;
            std::vector<int> sizes =
                quick ? std::vector<int>{5, 6}
                      : std::vector<int>{5, 6, 7, 8};
            auto hw = shareDevice(lineTopology(10));
            for (int n : sizes) {
                for (const char *id : {"tetris", "paulihedral"}) {
                    jobs.push_back(makeJob(
                        std::string(id) + "/ucc" + std::to_string(n),
                        buildSyntheticUcc(n, 100 + n), hw,
                        PipelineRegistry::instance().create(id)));
                }
            }
            return jobs;
        };

        auto run_engine = [&](const char *name) {
            EngineOptions opts;
            opts.diskCache = DiskCache::open(store_root.string());
            Engine engine(opts);
            auto t0 = std::chrono::steady_clock::now();
            engine.compileAll(make_jobs());
            EngineRun run{name};
            run.seconds = secondsSince(t0);
            engine.drain(); // count the write-behind persists too
            run.completed = engine.metrics().count("jobs.completed");
            run.diskHits = engine.metrics().count("jobs.disk_hits");
            run.writes = opts.diskCache->writes();
            run.mmapLoads = opts.diskCache->mmapLoads();
            run.bufferedLoads = opts.diskCache->bufferedLoads();
            run.shardCount = engine.metrics().count("cache.shard_count");
            run.lockWaitNs = engine.metrics().count("cache.lock_wait_ns");
            std::printf("  %-12s %6.3f s  completed=%llu disk_hits=%llu "
                        "mmap_loads=%llu\n",
                        name, run.seconds,
                        static_cast<unsigned long long>(run.completed),
                        static_cast<unsigned long long>(run.diskHits),
                        static_cast<unsigned long long>(run.mmapLoads));
            return run;
        };

        std::printf("\nengine cold/warm sweep:\n");
        engine_runs.push_back(run_engine("engine/cold"));
        engine_runs.push_back(run_engine("engine/warm"));
    }
    const EngineRun &warm = engine_runs[1];

    // ---- 5. instrument overhead ------------------------------------
    // ns/op for each observability primitive, measured tight-loop on
    // one thread: the string-keyed metrics path (slot lookup under the
    // registry mutex), the interned-handle path (one relaxed atomic
    // add), wait-free histogram recording, and a span recorded on a
    // disabled tracer (the always-on cost every job stage pays when
    // TETRIS_TRACE is unset — must stay in low single-digit ns).
    const uint64_t overhead_iters = quick ? 200000 : 2000000;
    double string_ns = 0.0, handle_ns = 0.0, hist_ns = 0.0,
           span_ns = 0.0;
    {
        MetricsRegistry registry;
        auto time_ns_per_op = [&](auto &&body) {
            auto t0 = std::chrono::steady_clock::now();
            for (uint64_t i = 0; i < overhead_iters; ++i)
                body(i);
            return secondsSince(t0) * 1e9 /
                   static_cast<double>(overhead_iters);
        };

        string_ns = time_ns_per_op(
            [&](uint64_t) { registry.addSeconds("perf.string", 1e-9); });
        MetricsRegistry::Handle handle =
            registry.timerHandle("perf.handle");
        handle_ns = time_ns_per_op(
            [&](uint64_t) { registry.addSeconds(handle, 1e-9); });
        Histogram &hist = registry.histogram("perf.hist");
        hist_ns = time_ns_per_op([&](uint64_t i) { hist.record(i); });
        Tracer disabled_tracer;
        const std::string job = "perf/job";
        span_ns = time_ns_per_op([&](uint64_t i) {
            disabled_tracer.recordSpan("perf", "perf", i, i + 1, job);
        });

        std::printf("\ninstrument overhead (%llu iters):\n"
                    "  timer (string key) %8.2f ns/op\n"
                    "  timer (handle)     %8.2f ns/op\n"
                    "  histogram record   %8.2f ns/op\n"
                    "  span (disabled)    %8.2f ns/op\n",
                    static_cast<unsigned long long>(overhead_iters),
                    string_ns, handle_ns, hist_ns, span_ns);
    }

    // ---- 6. observability-plane overhead ---------------------------
    // Two numbers the obs plane must keep honest: the cost of a
    // disarmed event log at every engine event site (the guarded
    // `enabled()` check everyone pays when TETRIS_EVENT_LOG is unset
    // — must stay at a few ns/op, asserted by smoke.sh), and the
    // latency of a full GET /metrics scrape, both while workers are
    // compiling and against an idle engine.
    double disabled_ns = 0.0, load_avg_us = 0.0, idle_avg_us = 0.0;
    uint64_t load_scrapes = 0;
    uint64_t body_bytes = 0;
    {
        EventLog disarmed;
        auto t0 = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < overhead_iters; ++i) {
            if (disarmed.enabled()) {
                disarmed.record("perf",
                                {EventLog::Field::u64("i", i)});
            }
        }
        disabled_ns = secondsSince(t0) * 1e9 /
                      static_cast<double>(overhead_iters);

        EngineOptions opts;
        opts.obsServer = "127.0.0.1:0";
        Engine engine(opts);
        const int idle_rounds = quick ? 20 : 100;
        if (engine.obsPort() > 0) {
            std::vector<CompileJob> jobs;
            auto hw = shareDevice(lineTopology(10));
            const int njobs = quick ? 6 : 16;
            for (int i = 0; i < njobs; ++i) {
                jobs.push_back(makeJob(
                    "obs/ucc" + std::to_string(i),
                    buildSyntheticUcc(5 + i % 3, 500 + i), hw));
            }
            const size_t total = jobs.size();
            std::thread load([&engine, &jobs] {
                engine.compileAll(std::move(jobs));
            });
            double load_us = 0.0;
            while (engine.finishedCount() < total) {
                int status = 0;
                auto s0 = std::chrono::steady_clock::now();
                std::string body =
                    obsHttpGet(engine.obsPort(), "/metrics", &status);
                if (status == 200) {
                    load_us += secondsSince(s0) * 1e6;
                    ++load_scrapes;
                    body_bytes = body.size();
                }
            }
            load.join();
            if (load_scrapes > 0)
                load_avg_us =
                    load_us / static_cast<double>(load_scrapes);

            double idle_us = 0.0;
            for (int i = 0; i < idle_rounds; ++i) {
                int status = 0;
                auto s0 = std::chrono::steady_clock::now();
                std::string body =
                    obsHttpGet(engine.obsPort(), "/metrics", &status);
                idle_us += secondsSince(s0) * 1e6;
                body_bytes = body.size();
            }
            idle_avg_us = idle_us / static_cast<double>(idle_rounds);
        } else {
            std::fprintf(stderr,
                         "warn: obs server failed to bind; scrape "
                         "latencies unmeasured\n");
        }

        std::printf("\nobs-plane overhead:\n"
                    "  event log (disabled) %8.2f ns/op\n"
                    "  /metrics under load  %8.1f us/scrape "
                    "(%llu scrapes)\n"
                    "  /metrics idle        %8.1f us/scrape "
                    "(%llu-byte body)\n",
                    disabled_ns, load_avg_us,
                    static_cast<unsigned long long>(load_scrapes),
                    idle_avg_us,
                    static_cast<unsigned long long>(body_bytes));
    }

    fs::remove_all(store_root, ec);

    auto config = [&](JsonWriter &w) {
        w.key("quick").value(quick);
        w.key("hardware_concurrency")
            .value(static_cast<uint64_t>(
                std::thread::hardware_concurrency()));
        w.key("default_shard_count")
            .value(static_cast<uint64_t>(default_shards));
        w.key("mmap_enabled")
            .value(serialize::MappedFile::mmapEnabled());
    };
    auto rows = [&](JsonWriter &w) {
        for (const SweepRow &row : sweeps) {
            w.beginObject();
            w.key("name").value(row.name);
            w.key("shards").value(row.shards);
            w.key("threads").value(row.threads);
            w.key("ops").value(row.ops);
            w.key("seconds").value(row.seconds);
            w.key("ops_per_sec").value(row.opsPerSec);
            w.key("lock_wait_ns").value(row.lockWaitNs);
            w.endObject();
        }
        for (const KernelRow &row : kernels) {
            w.beginObject();
            w.key("name").value(std::string("pauli/") + row.kernel + "/" +
                                std::to_string(row.qubits) + "q");
            w.key("kernel").value(row.kernel);
            w.key("qubits").value(row.qubits);
            w.key("iters").value(row.iters);
            w.key("packed_ns").value(row.packedNs);
            w.key("byte_ns").value(row.byteNs);
            w.key("speedup").value(row.speedup());
            w.endObject();
        }
        for (const auto &[name, load] : loads) {
            w.beginObject();
            w.key("name").value(name);
            w.key("entries").value(static_cast<uint64_t>(entries));
            w.key("bytes_total").value(bytes_total);
            w.key("loads").value(load.loads);
            w.key("avg_ns").value(load.avgNs);
            w.key("mmap_loads").value(load.mmapLoads);
            w.key("buffered_loads").value(load.bufferedLoads);
            w.endObject();
        }
        for (const EngineRun &run : engine_runs) {
            w.beginObject();
            w.key("name").value(run.name);
            w.key("seconds").value(run.seconds);
            w.key("completed").value(run.completed);
            w.key("disk_hits").value(run.diskHits);
            w.key("writes").value(run.writes);
            w.key("mmap_loads").value(run.mmapLoads);
            w.key("buffered_loads").value(run.bufferedLoads);
            w.key("shard_count").value(run.shardCount);
            w.key("lock_wait_ns").value(run.lockWaitNs);
            w.endObject();
        }
        w.beginObject();
        w.key("name").value("metrics_overhead");
        w.key("iters").value(overhead_iters);
        w.key("timer_string_ns").value(string_ns);
        w.key("timer_handle_ns").value(handle_ns);
        w.key("histogram_record_ns").value(hist_ns);
        w.key("span_disabled_ns").value(span_ns);
        w.endObject();
        w.beginObject();
        w.key("name").value("obs_overhead");
        w.key("iters").value(overhead_iters);
        w.key("event_log_disabled_ns").value(disabled_ns);
        w.key("scrape_load_avg_us").value(load_avg_us);
        w.key("scrape_load_count").value(load_scrapes);
        w.key("scrape_idle_avg_us").value(idle_avg_us);
        w.key("scrape_body_bytes").value(body_bytes);
        w.endObject();
    };
    if (writeBenchFile("perf", config, rows, nullptr).empty())
        return 1;

    if (warm.completed != 0 || warm.diskHits == 0) {
        std::fprintf(stderr,
                     "perf_microbench: FAIL: warm engine run recompiled "
                     "%llu job(s) with %llu disk hit(s) (must be served "
                     "entirely from the store)\n",
                     static_cast<unsigned long long>(warm.completed),
                     static_cast<unsigned long long>(warm.diskHits));
        return 1;
    }
    return 0;
}
