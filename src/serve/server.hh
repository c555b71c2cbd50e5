/**
 * @file
 * tetrisd: a resident compile service over one Engine.
 *
 * The thread pool, both cache tiers, and the obs plane stay alive
 * across requests, so a client's second submission of a known
 * program is a memory-cache hit instead of a process launch.
 * Concurrent clients connect over TCP and/or a Unix socket and speak
 * the frame protocol of serve/frame.hh:
 *
 *   client                      server
 *     Submit(program, device) ->
 *                             <- Result(key, verify, .tca artifact)
 *                             <- Error(code, detail)   on any failure
 *     Ping ->                 <- Pong
 *     Stats ->                <- StatsText(/metrics text)
 *
 * Concurrency model: one accept thread polls the listeners; each
 * connection gets a handler thread that serves requests
 * synchronously (read -> submit -> wait -> respond). A client
 * therefore has at most one compilation in flight, which is the
 * fairness story: N clients interleave through the engine's FIFO
 * queue round-robin-ish, and no client can monopolize the pool by
 * pipelining. The engine's cache still dedups identical programs
 * *across* clients, so a thundering herd on one program compiles it
 * once.
 *
 * Admission control is backpressure-by-error-frame, never OOM: a
 * connection beyond maxClients is answered with too_many_clients and
 * closed; a submit that would push the engine backlog past
 * maxQueueDepth gets `overloaded`; oversize frames are rejected from
 * the length prefix alone (frame.hh). Every rejection is a counted
 * metric (serve.*) on the engine registry, so /metrics exposes the
 * serving plane for free.
 *
 * Graceful drain (the SIGTERM path — see bench/tetrisd_main.cc):
 * drain() pins Engine::markDraining so /healthz reports "draining"
 * for the whole window, stops accepting, optionally cancels queued
 * jobs, lets every in-flight request publish and respond, then
 * waits out the engine's write-behind persists. No accepted request
 * is ever dropped without an answer frame.
 */

#ifndef TETRIS_SERVE_SERVER_HH
#define TETRIS_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tetris
{

class Engine;

namespace serve
{

struct ServeOptions
{
    /** TCP bind host (IPv4 literal or "localhost"). */
    std::string tcpHost = "127.0.0.1";
    /** TCP port: -1 = no TCP listener, 0 = ephemeral. */
    int tcpPort = -1;
    /** Unix-domain socket path; empty = no Unix listener. */
    std::string unixPath;
    /** Concurrent connections; 0 = TETRIS_SERVE_MAX_CLIENTS / 64. */
    int maxClients = 0;
    /** Engine backlog (submitted - finished) beyond which submits
     *  are rejected; 0 = TETRIS_SERVE_QUEUE / 256. */
    int maxQueueDepth = 0;
    /** Per-frame payload budget in bytes; 0 =
     *  TETRIS_SERVE_MAX_FRAME_MB / 64 MiB. */
    uint64_t maxFrameBytes = 0;
};

class ServeServer
{
  public:
    /**
     * Bind the configured listeners and start serving `engine`. At
     * least one listener (TCP or Unix) must be requested and
     * bindable, else null. The engine must outlive the server.
     */
    static std::unique_ptr<ServeServer> start(Engine &engine,
                                              ServeOptions opts);

    /** Drains (without cancelling queued work) if not yet drained. */
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** Bound TCP port, or 0 when no TCP listener. */
    int port() const { return port_; }

    /** Bound Unix socket path, or empty. */
    const std::string &unixPath() const { return unixPath_; }

    /**
     * Graceful shutdown: pin the engine's draining flag, stop
     * accepting, optionally cancelPending() so queued-but-unstarted
     * jobs answer `compile_cancelled` immediately, wait for every
     * in-flight request to respond, then Engine::drain(). Idempotent;
     * the engine reports "draining" on /healthz from the first call
     * onward.
     */
    void drain(bool cancel_queued);

    bool draining() const
    {
        return draining_.load(std::memory_order_relaxed);
    }

    /** Submit frames answered (with a Result or an Error). */
    uint64_t requestsServed() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

  private:
    explicit ServeServer(Engine &engine) : engine_(engine) {}

    void acceptLoop();
    void handleConnection(int fd);
    void handleSubmit(int fd, const std::string &payload);
    void reapFinishedHandlers();

    Engine &engine_;
    int tcpFd_ = -1;
    int unixFd_ = -1;
    int port_ = 0;
    std::string unixPath_;
    int maxClients_ = 64;
    int maxQueueDepth_ = 256;
    uint64_t maxFrameBytes_ = 0;

    std::thread acceptThread_;
    std::atomic<bool> stopAccept_{false};
    std::atomic<bool> draining_{false};
    std::atomic<int> activeConns_{0};
    std::atomic<uint64_t> requests_{0};

    std::mutex handlersMutex_;
    std::vector<std::thread> handlers_;
    /** Indices of handlers_ whose threads have returned (reapable). */
    std::vector<size_t> finishedHandlers_;
    /** Reusable handlers_ slots, so a long-lived daemon's handler
     *  table stays bounded by maxClients_, not by connection count. */
    std::vector<size_t> freeSlots_;
    std::once_flag drainOnce_;
};

} // namespace serve
} // namespace tetris

#endif // TETRIS_SERVE_SERVER_HH
