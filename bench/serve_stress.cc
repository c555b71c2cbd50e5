/**
 * @file
 * serve_stress: multi-client latency benchmark for tetrisd.
 *
 * Spins the real serve stack in-process (ServeServer on an ephemeral
 * TCP port over a verifying Engine), then hammers it with N client
 * threads x M submissions each, every request travelling the full
 * frame protocol + .tca artifact round-trip. Two phases:
 *
 *   cold  first pass; the distinct-program pool compiles once and
 *         every other submission dedups against it across clients
 *   warm  identical pass; the engine must serve 100% memory-cache
 *         hits and compile *nothing* (asserted, not just reported)
 *
 * BENCH_serve.json (bench_util.hh's shared layout) holds a `cold`
 * and a `warm` row -- p50/p90/p99/max/avg client-observed latency,
 * its split into server time (`server_ms`, the serverMs each Result
 * frame carries: decode, compile or cache hit, image encode) and
 * wire time (`wire_ms`, the rest of the round trip: frames, sockets,
 * the client's decode) as p50/p99, throughput, and the phase's
 * compile/dedup/verify counts -- plus a `server` row, and the
 * engine's metrics. Diff two runs with `scripts/bench_diff.py old
 * new`.
 *
 *   serve_stress [--clients N] [--jobs M] [--programs P] [--qubits Q]
 *
 * Defaults: 8 clients x 50 jobs over 16 distinct 8-qubit programs
 * (TETRIS_BENCH_QUICK=1: 4 x 10 over 6). --clients takes [1, 256],
 * --qubits [1, 4096] (the wire's cap), --jobs and --programs
 * [1, 2^20]; any other value prints the usage and exits 2 before a
 * thread starts. TETRIS_CACHE_DIR adds the disk tier under the
 * stress, TETRIS_VERIFY=0 disables the verifier. Exit status 1 on
 * any rejected request, transport error, verify failure, bad frame,
 * or warm-phase recompile.
 */

#include <cstdio>
#include <cstring>

#include "common/net.hh"

#if TETRIS_HAVE_SOCKETS

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "chem/uccsd.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace
{

using namespace tetris;
using Clock = std::chrono::steady_clock;

struct PhaseStats
{
    // One entry per completed request: the client's round trip, the
    // server's share of it (Response::serverMs), and the rest.
    std::vector<double> latencyMs;
    std::vector<double> serverMs;
    std::vector<double> wireMs;
    uint64_t ok = 0;
    uint64_t rejected = 0;
    uint64_t transportErrors = 0;
    uint64_t verifyFail = 0;
    double wallSeconds = 0.0;
    uint64_t compiles = 0;  // jobs.completed delta over the phase
    uint64_t diskHits = 0;  // jobs.disk_hits delta
    uint64_t deduped = 0;   // jobs.deduplicated delta
};

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

double
average(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

/**
 * One full pass: `clients` threads, each on its own connection,
 * submitting `jobs` programs drawn round-robin from the shared pool.
 */
PhaseStats
runPhase(const Engine &engine, int port, int clients, int jobs,
         const std::vector<serve::SubmitRequest> &pool,
         const char *phase_name)
{
    PhaseStats stats;
    const uint64_t completed0 = engine.metrics().count("jobs.completed");
    const uint64_t disk0 = engine.metrics().count("jobs.disk_hits");
    const uint64_t dedup0 =
        engine.metrics().count("jobs.deduplicated");

    std::mutex merge_mutex;
    std::atomic<bool> connect_failed{false};
    const auto t0 = Clock::now();

    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::string err;
            auto client = serve::ServeClient::connectTcp(port, err);
            if (!client) {
                std::fprintf(stderr,
                             "serve_stress: client %d connect "
                             "failed: %s\n",
                             c, err.c_str());
                connect_failed.store(true);
                return;
            }
            PhaseStats local;
            for (int j = 0; j < jobs; ++j) {
                // Interleave the pool differently per client so the
                // cold phase sees genuine cross-client contention on
                // every program, not a lockstep parade.
                const size_t p = (static_cast<size_t>(c) * 7 +
                                  static_cast<size_t>(j)) %
                                 pool.size();
                serve::ServeClient::Response resp;
                const auto r0 = Clock::now();
                const bool sent = client->submit(pool[p], resp);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - r0)
                        .count();
                if (!sent) {
                    local.transportErrors++;
                    break; // connection is dead; stop this client
                }
                if (!resp.ok) {
                    local.rejected++;
                    continue;
                }
                local.ok++;
                local.latencyMs.push_back(ms);
                local.serverMs.push_back(resp.serverMs);
                local.wireMs.push_back(ms - resp.serverMs);
                if (resp.verify == serve::WireVerify::Fail)
                    local.verifyFail++;
            }
            std::lock_guard<std::mutex> lock(merge_mutex);
            stats.ok += local.ok;
            stats.rejected += local.rejected;
            stats.transportErrors += local.transportErrors;
            stats.verifyFail += local.verifyFail;
            for (auto [all, mine] :
                 {std::pair{&stats.latencyMs, &local.latencyMs},
                  std::pair{&stats.serverMs, &local.serverMs},
                  std::pair{&stats.wireMs, &local.wireMs}})
                all->insert(all->end(), mine->begin(), mine->end());
        });
    }
    for (auto &t : threads)
        t.join();

    stats.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (connect_failed.load())
        stats.transportErrors++;
    stats.compiles =
        engine.metrics().count("jobs.completed") - completed0;
    stats.diskHits = engine.metrics().count("jobs.disk_hits") - disk0;
    stats.deduped =
        engine.metrics().count("jobs.deduplicated") - dedup0;

    for (auto *samples : {&stats.latencyMs, &stats.serverMs, &stats.wireMs})
        std::sort(samples->begin(), samples->end());
    std::printf("%-5s %5llu ok  %3llu rejected  %3llu transport  "
                "p50 %.2fms (server %.2fms)  p99 %.2fms  %.2fs wall  "
                "%llu compiles  %llu dedup\n",
                phase_name,
                static_cast<unsigned long long>(stats.ok),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(
                    stats.transportErrors),
                percentile(stats.latencyMs, 0.50),
                percentile(stats.serverMs, 0.50),
                percentile(stats.latencyMs, 0.99), stats.wallSeconds,
                static_cast<unsigned long long>(stats.compiles),
                static_cast<unsigned long long>(stats.deduped));
    return stats;
}

void
writePhaseJson(JsonWriter &w, const char *name, PhaseStats &s)
{
    w.beginObject();
    w.key("name").value(name);
    w.key("requests").value(
        static_cast<uint64_t>(s.ok + s.rejected + s.transportErrors));
    w.key("ok").value(s.ok);
    w.key("rejected").value(s.rejected);
    w.key("transport_errors").value(s.transportErrors);
    w.key("verify_fail").value(s.verifyFail);
    w.key("wall_seconds").value(s.wallSeconds);
    w.key("throughput_rps")
        .value(s.wallSeconds > 0.0
                   ? static_cast<double>(s.ok) / s.wallSeconds
                   : 0.0);
    w.key("latency_ms").beginObject();
    w.key("p50").value(percentile(s.latencyMs, 0.50));
    w.key("p90").value(percentile(s.latencyMs, 0.90));
    w.key("p99").value(percentile(s.latencyMs, 0.99));
    w.key("max").value(s.latencyMs.empty() ? 0.0
                                           : s.latencyMs.back());
    w.key("avg").value(average(s.latencyMs));
    w.endObject();
    for (auto [key, samples] : {std::pair{"server_ms", &s.serverMs},
                                std::pair{"wire_ms", &s.wireMs}}) {
        w.key(key).beginObject();
        w.key("p50").value(percentile(*samples, 0.50));
        w.key("p99").value(percentile(*samples, 0.99));
        w.endObject();
    }
    w.key("compiles").value(s.compiles);
    w.key("disk_hits").value(s.diskHits);
    w.key("deduplicated").value(s.deduped);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = bench::quickMode();
    int clients = quick ? 4 : 8;
    int jobs = quick ? 10 : 50;
    int programs = quick ? 6 : 16;
    int qubits = 8;

    // Every flag is checked here, before a thread starts or a socket
    // binds: a client count is a thread count.
    const struct
    {
        const char *flag;
        int *value;
        int64_t max;
    } flags[] = {
        {"--clients", &clients, 256},
        {"--jobs", &jobs, 1 << 20},
        {"--programs", &programs, 1 << 20},
        {"--qubits", &qubits, 4096},
    };
    for (int i = 1; i < argc; ++i) {
        const auto *f = std::find_if(
            std::begin(flags), std::end(flags),
            [&](const auto &c) { return std::strcmp(argv[i], c.flag) == 0; });
        const auto n = f != std::end(flags) && i + 1 < argc
                           ? parseBoundedInt(argv[++i], 1, f->max)
                           : std::nullopt;
        if (!n) {
            std::fprintf(stderr,
                         "usage: %s [--clients N] [--jobs M] "
                         "[--programs P] [--qubits Q]\n",
                         argv[0]);
            return 2;
        }
        *f->value = static_cast<int>(*n);
    }

    // Verify every served result by default (the acceptance bar is
    // zero verify failures under load); TETRIS_VERIFY=0 opts out.
    const bool verify = envFlag("TETRIS_VERIFY", true);
    bench::printBanner(
        "serve_stress: tetrisd under concurrent clients",
        "full frame-protocol round-trips against one resident "
        "engine; warm phase must recompile nothing");
    std::printf("config: %d clients x %d jobs, %d distinct "
                "%d-qubit programs, verify %s\n\n",
                clients, jobs, programs, qubits,
                verify ? "on" : "off");

    EngineOptions eopts;
    eopts.verify = verify;
    eopts.diskCache = DiskCache::openFromEnv();
    Engine engine(eopts);

    serve::ServeOptions sopts;
    sopts.tcpPort = 0;
    auto server = serve::ServeServer::start(engine, sopts);
    if (!server) {
        std::fprintf(stderr,
                     "serve_stress: could not bind a listener\n");
        return 1;
    }

    const CouplingGraph hw = lineTopology(qubits);
    std::vector<serve::SubmitRequest> pool;
    pool.reserve(programs);
    for (int p = 0; p < programs; ++p)
        pool.push_back(serve::makeSubmitRequest(
            "stress-" + std::to_string(p), "",
            buildSyntheticUcc(qubits,
                              static_cast<uint64_t>(p) + 1),
            hw));

    PhaseStats cold = runPhase(engine, server->port(), clients, jobs,
                               pool, "cold");
    PhaseStats warm = runPhase(engine, server->port(), clients, jobs,
                               pool, "warm");

    server->drain(false);

    const bool warm_recompiled = warm.compiles != 0;
    const uint64_t bad_frames =
        engine.metrics().count("serve.bad_frames");
    const bool failed = cold.rejected + cold.transportErrors +
                                cold.verifyFail + warm.rejected +
                                warm.transportErrors +
                                warm.verifyFail + bad_frames !=
                            0 ||
                        warm_recompiled;

    auto config = [&](JsonWriter &w) {
        w.key("clients").value(clients);
        w.key("jobs_per_client").value(jobs);
        w.key("distinct_programs").value(programs);
        w.key("qubits").value(qubits);
        w.key("verify").value(verify);
        w.key("disk_cache").value(eopts.diskCache != nullptr);
    };
    auto rows = [&](JsonWriter &w) {
        writePhaseJson(w, "cold", cold);
        writePhaseJson(w, "warm", warm);
        w.beginObject();
        w.key("name").value("server");
        w.key("requests_served").value(server->requestsServed());
        w.key("bad_frames").value(bad_frames);
        w.key("rejected_overload")
            .value(engine.metrics().count("serve.rejected_overload"));
        w.endObject();
    };
    bench::writeBenchFile("serve", config, rows, &engine);

    if (warm_recompiled)
        std::fprintf(stderr,
                     "serve_stress: FAIL: warm phase recompiled %llu "
                     "programs (expected pure cache hits)\n",
                     static_cast<unsigned long long>(warm.compiles));
    if (bad_frames != 0)
        std::fprintf(stderr,
                     "serve_stress: FAIL: server counted %llu bad "
                     "frame(s) from the stress clients\n",
                     static_cast<unsigned long long>(bad_frames));
    if (failed)
        std::fprintf(stderr, "serve_stress: FAIL\n");
    else
        std::printf("serve_stress: PASS\n");
    return failed ? 1 : 0;
}

#else // !TETRIS_HAVE_SOCKETS

int
main()
{
    std::fprintf(stderr, "serve_stress: sockets unavailable on this "
                         "platform\n");
    return 1;
}

#endif // TETRIS_HAVE_SOCKETS
