#include "serve/server.hh"

#include "common/net.hh"

#if TETRIS_HAVE_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <cstring>

#include "common/env.hh"
#include "common/log.hh"
#include "engine/engine.hh"
#include "engine/stats.hh"
#include "engine/trace.hh"
#include "serialize/artifact.hh"
#include "serve/frame.hh"

namespace tetris::serve
{

#if TETRIS_HAVE_SOCKETS

namespace
{

/** A stuck or vanished peer must not wedge a handler mid-frame. */
void
setIoTimeouts(int fd)
{
    struct timeval tmo;
    tmo.tv_sec = 5;
    tmo.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tmo, sizeof(tmo));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tmo, sizeof(tmo));
}

/** Best-effort error frame; the peer may already be gone. */
void
sendError(int fd, const char *code, const std::string &detail)
{
    sendFrame(fd, FrameType::Error,
              encodeError(ErrorFrame{code, detail}));
}

int
bindTcp(const std::string &host, int port, int &bound_port)
{
    std::string h = host.empty() || host == "localhost" ? "127.0.0.1"
                                                        : host;
    struct sockaddr_in sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, h.c_str(), &sa.sin_addr) != 1) {
        logWarn("tetrisd: invalid TCP host '", host, "'");
        return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sa),
               sizeof(sa)) != 0 ||
        ::listen(fd, 64) != 0 ||
        ::getsockname(fd, reinterpret_cast<struct sockaddr *>(&bound),
                      &len) != 0) {
        logWarn("tetrisd: cannot bind TCP ", host, ":", port, ": ",
                std::strerror(errno));
        ::close(fd);
        return -1;
    }
    bound_port = ntohs(bound.sin_port);
    return fd;
}

int
bindUnix(const std::string &path)
{
    struct sockaddr_un sa;
    if (path.size() >= sizeof(sa.sun_path)) {
        logWarn("tetrisd: unix socket path too long: ", path);
        return -1;
    }
    std::memset(&sa, 0, sizeof(sa));
    sa.sun_family = AF_UNIX;
    std::memcpy(sa.sun_path, path.c_str(), path.size());
    ::unlink(path.c_str()); // stale socket from a previous run
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&sa),
               sizeof(sa)) != 0 ||
        ::listen(fd, 64) != 0) {
        logWarn("tetrisd: cannot bind unix socket ", path, ": ",
                std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

std::unique_ptr<ServeServer>
ServeServer::start(Engine &engine, ServeOptions opts)
{
    std::unique_ptr<ServeServer> server(new ServeServer(engine));
    server->maxClients_ =
        opts.maxClients > 0
            ? opts.maxClients
            : envInt("TETRIS_SERVE_MAX_CLIENTS", 1, 4096, 64);
    server->maxQueueDepth_ =
        opts.maxQueueDepth > 0
            ? opts.maxQueueDepth
            : envInt("TETRIS_SERVE_QUEUE", 1, 1 << 20, 256);
    server->maxFrameBytes_ =
        opts.maxFrameBytes > 0
            ? opts.maxFrameBytes
            : envInt("TETRIS_SERVE_MAX_FRAME_MB", 1, 4096, 64) << 20;

    if (opts.tcpPort >= 0) {
        server->tcpFd_ =
            bindTcp(opts.tcpHost, opts.tcpPort, server->port_);
        if (server->tcpFd_ < 0)
            return nullptr;
    }
    if (!opts.unixPath.empty()) {
        server->unixFd_ = bindUnix(opts.unixPath);
        if (server->unixFd_ < 0) {
            if (server->tcpFd_ >= 0)
                ::close(server->tcpFd_);
            return nullptr;
        }
        server->unixPath_ = opts.unixPath;
    }
    if (server->tcpFd_ < 0 && server->unixFd_ < 0) {
        logWarn("tetrisd: no listener configured (need a TCP port "
                "and/or a unix socket path)");
        return nullptr;
    }

    server->acceptThread_ =
        std::thread([s = server.get()] { s->acceptLoop(); });
    logInfo("tetrisd: serving",
            server->tcpFd_ >= 0 ? " tcp port " : "",
            server->tcpFd_ >= 0 ? std::to_string(server->port_) : "",
            server->unixFd_ >= 0 ? " unix " : "",
            server->unixFd_ >= 0 ? server->unixPath_ : "",
            " (max_clients=", server->maxClients_,
            " queue=", server->maxQueueDepth_, ")");
    return server;
}

ServeServer::~ServeServer()
{
    drain(false);
}

void
ServeServer::drain(bool cancel_queued)
{
    std::call_once(drainOnce_, [&] {
        // Order matters: the draining flag first, so every handler
        // answers "draining" to new submits while in-flight ones
        // finish; /healthz flips the same instant.
        draining_.store(true, std::memory_order_relaxed);
        engine_.markDraining(true);
        if (cancel_queued)
            engine_.cancelPending();

        stopAccept_.store(true, std::memory_order_relaxed);
        if (acceptThread_.joinable())
            acceptThread_.join();
        if (tcpFd_ >= 0)
            ::close(tcpFd_);
        if (unixFd_ >= 0) {
            ::close(unixFd_);
            ::unlink(unixPath_.c_str());
        }

        // Every handler exits once its current request has been
        // answered (they poll draining_ between requests); joining
        // here is what guarantees no accepted request is dropped.
        std::vector<std::thread> live;
        {
            std::lock_guard<std::mutex> lock(handlersMutex_);
            for (auto &t : handlers_) {
                if (t.joinable())
                    live.push_back(std::move(t));
            }
            finishedHandlers_.clear();
        }
        for (auto &t : live)
            t.join();

        // Wait out the pool, including write-behind disk persists;
        // drain() clears the flag when the pool is idle, so pin it
        // again — the daemon stays "draining" until the process
        // exits.
        engine_.drain();
        engine_.markDraining(true);
        logInfo("tetrisd: drained after ", requestsServed(),
                " requests");
    });
}

void
ServeServer::reapFinishedHandlers()
{
    std::vector<std::thread> done;
    std::vector<size_t> slots;
    {
        std::lock_guard<std::mutex> lock(handlersMutex_);
        for (size_t idx : finishedHandlers_) {
            if (handlers_[idx].joinable())
                done.push_back(std::move(handlers_[idx]));
        }
        slots.swap(finishedHandlers_);
    }
    for (auto &t : done)
        t.join();
    // Joined: the slots are safe to assign new threads into.
    std::lock_guard<std::mutex> lock(handlersMutex_);
    freeSlots_.insert(freeSlots_.end(), slots.begin(), slots.end());
}

void
ServeServer::acceptLoop()
{
    while (!stopAccept_.load(std::memory_order_relaxed)) {
        struct pollfd pfds[2];
        nfds_t nfds = 0;
        if (tcpFd_ >= 0)
            pfds[nfds++] = {tcpFd_, POLLIN, 0};
        if (unixFd_ >= 0)
            pfds[nfds++] = {unixFd_, POLLIN, 0};
        // Short poll instead of blocking accept: drain() only flips
        // stopAccept_ and joins. pollRetry/acceptRetry absorb EINTR,
        // so the SIGTERM that *starts* a drain never costs the
        // connection that raced it.
        int r = net::pollRetry(pfds, nfds, 100);
        if (r <= 0)
            continue;
        for (nfds_t i = 0; i < nfds; ++i) {
            if ((pfds[i].revents & POLLIN) == 0)
                continue;
            int fd = net::acceptRetry(pfds[i].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            engine_.metrics().addCount("serve.connections");
            setIoTimeouts(fd);
            if (draining_.load(std::memory_order_relaxed)) {
                sendError(fd, "draining", "server is draining");
                ::close(fd);
                continue;
            }
            // Admission control, stage 1: connection cap. Answered
            // with an error frame and closed — backpressure, not
            // OOM via unbounded handler threads.
            if (activeConns_.load(std::memory_order_relaxed) >=
                maxClients_) {
                engine_.metrics().addCount("serve.rejected_clients");
                sendError(fd, "too_many_clients",
                          "connection limit reached; retry later");
                ::close(fd);
                continue;
            }
            activeConns_.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(handlersMutex_);
            size_t slot;
            if (!freeSlots_.empty()) {
                slot = freeSlots_.back();
                freeSlots_.pop_back();
            } else {
                slot = handlers_.size();
                handlers_.emplace_back();
            }
            // The slot only re-enters freeSlots_ after the reap has
            // *joined* the finished thread — assigning a new thread
            // over a merely-finished (still joinable) one would
            // terminate.
            handlers_[slot] = std::thread([this, fd, slot] {
                handleConnection(fd);
                std::lock_guard<std::mutex> l(handlersMutex_);
                finishedHandlers_.push_back(slot);
            });
        }
        reapFinishedHandlers();
    }
}

void
ServeServer::handleConnection(int fd)
{
    while (!draining_.load(std::memory_order_relaxed)) {
        // Idle wait via poll so a drain is noticed within 100ms even
        // with no traffic; the socket timeouts only bound mid-frame
        // stalls.
        struct pollfd pfd = {fd, POLLIN, 0};
        int r = net::pollRetry(&pfd, 1, 100);
        if (r < 0)
            break;
        if (r == 0)
            continue;

        FrameType type = FrameType::Ping;
        std::string payload;
        RecvStatus st = recvFrame(fd, maxFrameBytes_, type, payload);
        if (st == RecvStatus::Closed)
            break;
        if (st != RecvStatus::Ok) {
            // Framing is lost (or the bytes never were frames):
            // answer with the typed reason, then hang up. The error
            // frame is best-effort — a peer that died mid-frame
            // won't read it.
            engine_.metrics().addCount("serve.bad_frames");
            sendError(fd, recvStatusName(st),
                      "unreadable frame; closing connection");
            break;
        }

        switch (type) {
          case FrameType::Ping:
            sendFrame(fd, FrameType::Pong, {});
            continue;
          case FrameType::Stats:
            sendFrame(fd, FrameType::StatsText,
                      formatStatsSnapshot(engine_));
            continue;
          case FrameType::Submit:
            handleSubmit(fd, payload);
            continue;
          default:
            // A well-framed message only a server may send; framing
            // is intact, so answer and keep the connection.
            engine_.metrics().addCount("serve.bad_requests");
            sendError(fd, "bad_request",
                      "unexpected frame type from a client");
            continue;
        }
    }
    ::close(fd);
    activeConns_.fetch_sub(1, std::memory_order_relaxed);
}

void
ServeServer::handleSubmit(int fd, const std::string &payload)
{
    const uint64_t t0 = steadyNowNs();
    requests_.fetch_add(1, std::memory_order_relaxed);

    auto respondError = [&](const char *metric, const char *code,
                            const std::string &detail) {
        engine_.metrics().addCount(metric);
        sendError(fd, code, detail);
    };

    SubmitRequest req;
    std::string err;
    if (!decodeSubmit(payload, req, err)) {
        respondError("serve.bad_requests", "bad_request", err);
        return;
    }
    CompileJob job;
    if (!submitToJob(req, job, err)) {
        respondError("serve.bad_requests", "bad_request", err);
        return;
    }
    if (draining_.load(std::memory_order_relaxed)) {
        respondError("serve.rejected_draining", "draining",
                     "server is draining");
        return;
    }
    // Admission control, stage 2: bounded engine backlog. The
    // rejection is an error frame the client can retry on — the
    // queue itself never grows past the budget.
    const size_t submitted = engine_.submittedCount();
    const size_t finished = engine_.finishedCount();
    const size_t backlog =
        submitted > finished ? submitted - finished : 0;
    if (backlog >= static_cast<size_t>(maxQueueDepth_)) {
        respondError("serve.rejected_overload", "overloaded",
                     "engine backlog full; retry later");
        return;
    }

    const uint64_t key = Engine::jobKey(job);
    auto entry = engine_.submitScoped(std::move(job));
    auto result = entry->get();
    if (result == nullptr || result->cancelled) {
        respondError("serve.cancelled", "compile_cancelled",
                     "job was cancelled while the server drained");
        return;
    }

    ResultFrame rf;
    rf.jobKey = key;
    rf.verify = static_cast<WireVerify>(entry->verifyStatus());
    rf.artifact = serialize::encodeArtifact(key, *result);
    // Server time stops once the image is in hand: the encode is
    // server work, not wire.
    rf.serverMs =
        static_cast<double>(steadyNowNs() - t0) / 1e6;
    // Count before sending: a client may read the counter as soon as
    // it holds the frame.
    engine_.metrics().addCount("serve.results");
    if (sendFrame(fd, FrameType::Result, encodeResult(rf))) {
        engine_.metrics()
            .histogram("serve.request_ns")
            .record(steadyNowNs() - t0);
    }
}

#else // !TETRIS_HAVE_SOCKETS

std::unique_ptr<ServeServer>
ServeServer::start(Engine &, ServeOptions)
{
    logWarn("tetrisd: no socket support on this platform");
    return nullptr;
}

ServeServer::~ServeServer() = default;

void
ServeServer::drain(bool)
{
}

void
ServeServer::acceptLoop()
{
}

void
ServeServer::handleConnection(int)
{
}

void
ServeServer::handleSubmit(int, const std::string &)
{
}

void
ServeServer::reapFinishedHandlers()
{
}

#endif // TETRIS_HAVE_SOCKETS

} // namespace tetris::serve
