/**
 * @file
 * tetrisd: the resident compile daemon.
 *
 * Binds the serve layer (src/serve/server.hh) over one long-lived
 * Engine and runs until SIGTERM/SIGINT, then drains gracefully:
 * stop accepting, answer every in-flight request, flush the
 * write-behind persists, exit 0. While draining, /healthz (obs
 * plane, TETRIS_OBS_ADDR) reports "draining" so load balancers stop
 * routing here before the socket closes.
 *
 *   tetrisd [--port N] [--host H] [--unix PATH] [--port-file PATH]
 *           [--no-verify] [--cancel-queued-on-signal]
 *
 *   --port N       TCP listen port in [-1, 65535] (default 0 =
 *                  ephemeral; -1 = no TCP listener, for --unix alone)
 *   --host H       TCP bind host (default 127.0.0.1)
 *   --unix PATH    also listen on a Unix-domain socket
 *   --port-file P  write the bound TCP port to P (scripts discover
 *                  an ephemeral port this way — see scripts/smoke.sh)
 *   --no-verify    skip the semantic verifier on served results
 *   --cancel-queued-on-signal
 *                  on SIGTERM, cancel queued-but-unstarted jobs
 *                  (clients get `compile_cancelled` error frames)
 *                  instead of compiling out the backlog
 *
 * A malformed or out-of-range --port prints the usage and exits 2
 * before anything binds; -1 without --unix leaves no listener, which
 * the server refuses at start (exit 1).
 *
 * Environment: TETRIS_SERVE_MAX_CLIENTS / TETRIS_SERVE_QUEUE /
 * TETRIS_SERVE_MAX_FRAME_MB (admission control), TETRIS_CACHE_DIR
 * (persistent artifact store), TETRIS_OBS_ADDR (/metrics + /healthz),
 * TETRIS_ENGINE_THREADS (worker pool).
 */

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/net.hh"

#if TETRIS_HAVE_SOCKETS

#include <signal.h>
#include <unistd.h>

#include "common/env.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "serve/server.hh"

namespace
{

/** Self-pipe: the signal handler's only job is one async-safe write. */
int g_signal_pipe[2] = {-1, -1};

extern "C" void
onShutdownSignal(int)
{
    const char byte = 1;
    // A full pipe just means a signal is already pending; dropping
    // the write is fine.
    (void)!::write(g_signal_pipe[1], &byte, 1);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--port N] [--host H] [--unix PATH] "
                 "[--port-file PATH] [--no-verify] "
                 "[--cancel-queued-on-signal]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tetris;

    serve::ServeOptions opts;
    opts.tcpPort = 0; // ephemeral by default; --port overrides
    std::string port_file;
    bool verify = true;
    bool cancel_queued = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--port") {
            const char *v = next();
            const auto port = v ? parseBoundedInt(v, -1, 65535) : std::nullopt;
            if (!port)
                return usage(argv[0]);
            opts.tcpPort = static_cast<int>(*port);
        } else if (arg == "--host") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            opts.tcpHost = v;
        } else if (arg == "--unix") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            opts.unixPath = v;
        } else if (arg == "--port-file") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            port_file = v;
        } else if (arg == "--no-verify") {
            verify = false;
        } else if (arg == "--cancel-queued-on-signal") {
            cancel_queued = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (::pipe(g_signal_pipe) != 0) {
        std::perror("tetrisd: pipe");
        return 1;
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onShutdownSignal;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    EngineOptions eopts;
    eopts.verify = verify;
    eopts.diskCache = DiskCache::openFromEnv();
    Engine engine(eopts);

    auto server = serve::ServeServer::start(engine, opts);
    if (!server) {
        std::fprintf(stderr, "tetrisd: no listener could be bound\n");
        return 1;
    }

    if (server->port() != 0)
        std::printf("tetrisd: listening on %s:%d\n",
                    opts.tcpHost.c_str(), server->port());
    if (!server->unixPath().empty())
        std::printf("tetrisd: listening on unix:%s\n",
                    server->unixPath().c_str());
    std::printf("tetrisd: pid %d, verify %s, disk cache %s\n",
                static_cast<int>(::getpid()), verify ? "on" : "off",
                eopts.diskCache ? "on" : "off");
    std::fflush(stdout);

    if (!port_file.empty()) {
        if (std::FILE *f = std::fopen(port_file.c_str(), "w")) {
            std::fprintf(f, "%d\n", server->port());
            std::fclose(f);
        } else {
            std::fprintf(stderr,
                         "tetrisd: cannot write port file %s\n",
                         port_file.c_str());
            return 1;
        }
    }

    // Park until a shutdown signal lands on the self-pipe.
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }

    std::printf("tetrisd: shutdown signal, draining%s...\n",
                cancel_queued ? " (cancelling queued jobs)" : "");
    std::fflush(stdout);
    server->drain(cancel_queued);
    std::printf("tetrisd: drained after %llu requests, exiting\n",
                static_cast<unsigned long long>(
                    server->requestsServed()));
    return 0;
}

#else // !TETRIS_HAVE_SOCKETS

int
main()
{
    std::fprintf(stderr, "tetrisd: sockets unavailable on this "
                         "platform\n");
    return 1;
}

#endif // TETRIS_HAVE_SOCKETS
