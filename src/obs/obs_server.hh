/**
 * @file
 * Embedded HTTP/1.0 scrape server for the observability plane.
 *
 * A deliberately tiny, dependency-free server: one blocking
 * accept/serve loop on its own thread, one request per connection
 * (Connection: close), GET only. It exists so any engine-hosting
 * process — today's bench binaries, tomorrow's tetrisd — can be
 * observed *while work is in flight* instead of only through the
 * BENCH_*.json it writes at exit. Three endpoints:
 *
 *   GET /metrics  Prometheus text exposition 0.0.4 rendered by
 *                 formatStatsSnapshot() (engine/stats.hh): counters,
 *                 gauges (the oldest in-flight job's age among
 *                 them), and the log2 latency histograms as
 *                 cumulative _bucket{le=...}/_sum/_count series.
 *   GET /healthz  Liveness + drain state as a one-line JSON object;
 *                 "status" flips to "draining" inside Engine::drain.
 *   GET /statusz  Human-readable: uptime, in-flight jobs with stage
 *                 and elapsed time, queue depth, cache hit rates,
 *                 top-5 slowest recent jobs.
 *
 * Armed by TETRIS_OBS_ADDR=host:port (EngineOptions::obsServer for
 * tests; port 0 binds an ephemeral port, reported by port()).
 * TETRIS_OBS_LINGER_MS=<ms> keeps the server alive that long into
 * its teardown, so an external scraper can collect the final
 * (post-sweep, idle) state of a short-lived process — smoke.sh uses
 * this to compare the last scrape against the BENCH json. The
 * engine tears the server down before its own members, so a request
 * racing engine destruction either completes or gets a reset — never
 * a use-after-free. Serving is serialized: a scrape every few
 * seconds against a handler that renders in microseconds does not
 * need concurrency, and a single serving thread keeps the engine's
 * hot path entirely untouched when nobody scrapes.
 */

#ifndef TETRIS_OBS_OBS_SERVER_HH
#define TETRIS_OBS_OBS_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/net.hh"

namespace tetris
{

class Engine;

class ObsServer
{
  public:
    ~ObsServer();

    ObsServer(const ObsServer &) = delete;
    ObsServer &operator=(const ObsServer &) = delete;

    /**
     * Bind `addr` ("host:port"; host must be an IPv4 literal or
     * "localhost", port 0 picks an ephemeral one) and start serving
     * `engine`'s state. Returns null after logging a warning when
     * the address is malformed or the bind fails — an unbindable
     * scrape port must not take down the compile job.
     */
    static std::unique_ptr<ObsServer> start(const Engine &engine,
                                            const std::string &addr);

    /** The bound TCP port (resolved even when `addr` said 0). */
    int port() const { return port_; }

    /** Requests served since start (statusz shows it). */
    uint64_t requestCount() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

  private:
    explicit ObsServer(const Engine &engine) : engine_(engine) {}

    void loop();
    void handle(int fd);

    const Engine &engine_;
    int listenFd_ = -1;
    int port_ = 0;
    /** TETRIS_OBS_LINGER_MS: serve this long into teardown. */
    uint64_t lingerMs_ = 0;
    std::atomic<bool> stop_{false};
    net::WakeFd wake_; ///< teardown ends the loop's poll with it
    std::atomic<uint64_t> requests_{0};
    std::thread thread_;
};

/**
 * Minimal loopback HTTP/1.0 GET for tests and benches: fetch `path`
 * from 127.0.0.1:`port`, return the response body, store the status
 * code in `*status` when non-null (0 on connect/protocol failure).
 */
std::string obsHttpGet(int port, const std::string &path,
                       int *status = nullptr);

} // namespace tetris

#endif // TETRIS_OBS_OBS_SERVER_HH
