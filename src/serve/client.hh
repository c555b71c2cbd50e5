/**
 * @file
 * Client side of the tetrisd frame protocol.
 *
 * One ServeClient is one connection speaking serve/frame.hh frames
 * synchronously: submit() writes a Submit frame and blocks for the
 * Result (decoding the embedded .tca artifact back into a
 * CompileResult) or an Error. Everything the bench/CLI/tests need —
 * including the raw fd, so the robustness suite can inject malformed
 * bytes through the same connection type real clients use.
 *
 * Not thread-safe: one connection, one requester (open more
 * connections for concurrency, as serve_stress does).
 */

#ifndef TETRIS_SERVE_CLIENT_HH
#define TETRIS_SERVE_CLIENT_HH

#include <memory>
#include <string>

#include "core/compiler.hh"
#include "serve/frame.hh"

namespace tetris::serve
{

class ServeClient
{
  public:
    /** Connect to a tetrisd TCP listener on localhost. */
    static std::unique_ptr<ServeClient> connectTcp(int port,
                                                   std::string &err);

    /** Connect to a tetrisd Unix-domain listener. */
    static std::unique_ptr<ServeClient> connectUnix(
        const std::string &path, std::string &err);

    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Outcome of one submit round-trip. */
    struct Response
    {
        /** True iff a Result frame arrived and its artifact decoded. */
        bool ok = false;
        /** Error frame contents (or transport diagnostic) when !ok. */
        std::string errorCode;
        std::string errorDetail;
        uint64_t jobKey = 0;
        WireVerify verify = WireVerify::NotRun;
        double serverMs = 0.0;
        CompileResult result;
    };

    /**
     * Round-trip one compile request. Returns false only on
     * transport death (connection unusable afterwards); a server-side
     * rejection returns true with out.ok == false and the error code.
     */
    bool submit(const SubmitRequest &req, Response &out);

    /** Liveness probe: Ping -> Pong. */
    bool ping();

    /** Fetch the server's /metrics-format stats text. */
    bool statsText(std::string &out);

    /** Raw connected fd (tests poke malformed bytes through it). */
    int fd() const { return fd_; }

  private:
    /** Takes `fd`, connected, and arms its I/O timeouts. */
    explicit ServeClient(int fd);

    int fd_ = -1;
};

} // namespace tetris::serve

#endif // TETRIS_SERVE_CLIENT_HH
