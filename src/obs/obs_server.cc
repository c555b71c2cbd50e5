#include "obs/obs_server.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/env.hh"
#include "common/log.hh"
#include "common/net.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "engine/stats.hh"
#include "engine/trace.hh"

namespace tetris
{

namespace
{

/**
 * "host:port" -> (host, port). Host must be an IPv4 literal or
 * "localhost"; a bare ":port" or "port" binds loopback. Returns
 * false on anything else.
 */
bool
parseAddr(const std::string &addr, std::string &host, int &port)
{
    host = "127.0.0.1";
    std::string port_str = addr;
    const size_t colon = addr.rfind(':');
    if (colon != std::string::npos) {
        host = addr.substr(0, colon);
        port_str = addr.substr(colon + 1);
    }
    if (port_str.empty() || !net::isTcpHost(host))
        return false;
    // Port 0 asks for an ephemeral port.
    const auto parsed = parseBoundedInt(port_str.c_str(), 0, 65535);
    if (!parsed)
        return false;
    port = static_cast<int>(*parsed);
    return true;
}

void
sendResponse(int fd, int status, const char *reason,
             const char *content_type, const std::string &body)
{
    std::ostringstream os;
    os << "HTTP/1.0 " << status << " " << reason << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n";
    const std::string head = os.str();
    // net::sendAll retries EINTR, so a signal landing mid-scrape
    // (SIGTERM during a daemon drain, SIGINT during a bench) cannot
    // truncate the response; peer death just abandons it.
    if (net::sendAll(fd, head.data(), head.size()))
        net::sendAll(fd, body.data(), body.size());
}

std::string
renderHealthz(const Engine &engine)
{
    const size_t started = engine.startedCount();
    const size_t finished = engine.finishedCount();
    const size_t submitted = engine.submittedCount();
    const bool draining = engine.draining();
    std::ostringstream os;
    os << "{\"status\":\"" << (draining ? "draining" : "ok")
       << "\",\"draining\":" << (draining ? "true" : "false")
       << ",\"in_flight\":" << (started > finished ? started - finished : 0)
       << ",\"queued\":" << (submitted > started ? submitted - started : 0)
       << ",\"submitted\":" << submitted << ",\"finished\":" << finished
       << "}\n";
    return os.str();
}

std::string
renderStatusz(const Engine &engine, uint64_t requests)
{
    const uint64_t now_ns = steadyNowNs();
    const size_t submitted = engine.submittedCount();
    const size_t started = engine.startedCount();
    const size_t finished = engine.finishedCount();
    std::ostringstream os;
    os << "tetris engine status\n"
       << "====================\n"
       << "uptime_s: " << engine.uptimeSeconds() << "\n"
       << "threads: " << engine.numThreads() << "\n"
       << "draining: " << (engine.draining() ? "yes" : "no") << "\n"
       << "jobs: " << finished << "/" << submitted << " finished, "
       << (started > finished ? started - finished : 0) << " in flight, "
       << (submitted > started ? submitted - started : 0) << " queued\n";

    const CompileCache &cache = engine.cache();
    const size_t chits = cache.hits(), cmiss = cache.misses();
    os << "cache: " << chits << " hits / " << cmiss << " misses";
    if (chits + cmiss > 0) {
        os << " (" << 100.0 * static_cast<double>(chits) /
                          static_cast<double>(chits + cmiss)
           << "% hit rate)";
    }
    os << "\n";
    if (const DiskCache *disk = engine.diskCache()) {
        os << "disk cache: " << disk->hits() << " hits / "
           << disk->misses() << " misses, " << disk->writes()
           << " writes\n";
    }
    os << "scrapes served: " << requests << "\n";

    os << "\nin-flight jobs\n--------------\n";
    auto active = engine.activeJobs();
    if (active.empty())
        os << "(none)\n";
    for (const auto &job : active) {
        const uint64_t elapsed_ns =
            now_ns > job->startNs ? now_ns - job->startNs : 0;
        os << "  " << job->name << "  stage="
           << job->stage.load(std::memory_order_relaxed) << "  elapsed="
           << static_cast<double>(elapsed_ns) / 1e6 << "ms"
           << (job->stalled.load(std::memory_order_relaxed)
                   ? "  [STALLED]"
                   : "")
           << "\n";
    }

    os << "\ntop-5 slowest recent jobs\n-------------------------\n";
    auto recent = engine.recentJobs();
    std::sort(recent.begin(), recent.end(),
              [](const Engine::RecentJob &a, const Engine::RecentJob &b) {
                  return a.durationNs > b.durationNs;
              });
    if (recent.empty())
        os << "(none)\n";
    for (size_t i = 0; i < recent.size() && i < 5; ++i) {
        os << "  " << recent[i].name << "  "
           << static_cast<double>(recent[i].durationNs) / 1e6 << "ms\n";
    }
    return os.str();
}

} // namespace

std::unique_ptr<ObsServer>
ObsServer::start(const Engine &engine, const std::string &addr)
{
    std::string host, err;
    int port = 0;
    if (!parseAddr(addr, host, port)) {
        logWarn("obs server: invalid address '", addr,
                "' (want host:port); not serving");
        return nullptr;
    }
    int bound_port = 0;
    const int fd = net::listenTcp(host, port, 16, bound_port, err);
    if (fd < 0) {
        logWarn("obs server: cannot bind '", addr, "': ", err,
                "; not serving");
        return nullptr;
    }
    std::unique_ptr<ObsServer> server(new ObsServer(engine));
    server->listenFd_ = fd;
    server->port_ = bound_port;
    server->lingerMs_ = envInt("TETRIS_OBS_LINGER_MS", 0, 60000, 0);
    server->thread_ = std::thread([s = server.get()] { s->loop(); });
    logInfo("obs server: serving /metrics /healthz /statusz on port ",
            server->port_);
    return server;
}

ObsServer::~ObsServer()
{
    // The linger window runs before stop_ flips, so the serving
    // thread keeps answering: the engine is still fully alive here
    // (it destroys this server before any of its own members).
    if (lingerMs_ > 0) {
        logInfo("obs server: lingering ", lingerMs_,
                "ms for a final scrape");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(lingerMs_));
    }
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

void
ObsServer::loop()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        // Poll with a short timeout instead of blocking in accept():
        // the destructor only has to flip stop_ and join, with no
        // platform-dependent socket-shutdown wakeup dance.
        struct pollfd pfd;
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        pfd.revents = 0;
        // EINTR-retrying poll/accept: a signal aimed at the process
        // (drain, cancellation) must not cost a scrape.
        int r = net::pollRetry(&pfd, 1, 100);
        if (r <= 0)
            continue;
        int fd = net::acceptRetry(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // A stuck or malicious client must not wedge the serving
        // thread past this request.
        net::setTimeouts(fd, 2);
        handle(fd);
        ::close(fd);
    }
}

void
ObsServer::handle(int fd)
{
    // Read until the end of the request head (or a sane cap); only
    // the request line matters for an HTTP/1.0 GET.
    std::string req;
    char buf[1024];
    while (req.size() < 8192 &&
           req.find("\r\n\r\n") == std::string::npos &&
           req.find('\n') == std::string::npos) {
        ssize_t n = net::recvRetry(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            return;
        req.append(buf, static_cast<size_t>(n));
    }
    const size_t eol = req.find_first_of("\r\n");
    if (eol == std::string::npos)
        return;
    std::istringstream line(req.substr(0, eol));
    std::string method, path;
    line >> method >> path;
    requests_.fetch_add(1, std::memory_order_relaxed);

    if (method != "GET") {
        sendResponse(fd, 405, "Method Not Allowed", "text/plain",
                     "only GET is served\n");
        return;
    }
    if (path == "/metrics") {
        sendResponse(fd, 200, "OK",
                     "text/plain; version=0.0.4; charset=utf-8",
                     formatStatsSnapshot(engine_));
    } else if (path == "/healthz") {
        sendResponse(fd, 200, "OK", "application/json",
                     renderHealthz(engine_));
    } else if (path == "/statusz") {
        sendResponse(fd, 200, "OK", "text/plain; charset=utf-8",
                     renderStatusz(engine_, requestCount()));
    } else {
        sendResponse(fd, 404, "Not Found", "text/plain",
                     "try /metrics, /healthz, or /statusz\n");
    }
}

std::string
obsHttpGet(int port, const std::string &path, int *status)
{
    if (status != nullptr)
        *status = 0;
    std::string err;
    const int fd = net::connectTcp(port, err, 5);
    if (fd < 0)
        return "";
    const std::string req =
        "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    net::sendAll(fd, req.data(), req.size());
    std::string resp;
    char buf[4096];
    for (;;) {
        ssize_t n = net::recvRetry(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        resp.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    const size_t sp = resp.find(' ');
    if (status != nullptr && sp != std::string::npos)
        *status = std::atoi(resp.c_str() + sp + 1);
    const size_t body = resp.find("\r\n\r\n");
    return body == std::string::npos ? std::string()
                                     : resp.substr(body + 4);
}

} // namespace tetris
