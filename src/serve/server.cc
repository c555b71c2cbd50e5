#include "serve/server.hh"

#include <unistd.h>

#include "common/env.hh"
#include "common/log.hh"
#include "common/net.hh"
#include "engine/engine.hh"
#include "engine/stats.hh"
#include "engine/trace.hh"
#include "serialize/artifact.hh"
#include "serve/frame.hh"

namespace tetris::serve
{

namespace
{

/** Best-effort error frame; the peer may already be gone. */
void
sendError(int fd, const char *code, const std::string &detail)
{
    sendFrame(fd, FrameType::Error,
              encodeError(ErrorFrame{code, detail}));
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

    std::string err;
    if (opts.tcpPort >= 0) {
        if (!net::isTcpHost(opts.tcpHost)) {
            logWarn("tetrisd: invalid TCP host '", opts.tcpHost, "'");
            return nullptr;
        }
        server->tcpFd_ = net::listenTcp(opts.tcpHost, opts.tcpPort, 64,
                                        server->port_, err);
        if (server->tcpFd_ < 0) {
            logWarn("tetrisd: cannot bind TCP ", opts.tcpHost, ":",
                    opts.tcpPort, ": ", err);
            return nullptr;
        }
    }
    if (!opts.unixPath.empty()) {
        if (!net::fitsUnixPath(opts.unixPath)) {
            logWarn("tetrisd: unix socket path too long: ",
                    opts.unixPath);
        } else {
            server->unixFd_ = net::listenUnix(opts.unixPath, 64, err);
            if (server->unixFd_ < 0)
                logWarn("tetrisd: cannot bind unix socket ",
                        opts.unixPath, ": ", err);
        }
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
            // A stuck or vanished peer must not wedge a handler
            // mid-frame.
            net::setTimeouts(fd, 5);
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
    auto entry = engine_.submit(std::move(job));
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

} // namespace tetris::serve
