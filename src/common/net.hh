/**
 * @file
 * POSIX socket helpers: the one module in this repository that makes
 * socket system calls.
 *
 * Set-up: listenTcp/listenUnix open the listeners of the serve and
 * obs planes, connectTcp/connectUnix open their client connections,
 * and setTimeouts arms the send/receive timeouts every accepted or
 * connected socket carries. On failure each returns -1 and sets
 * `err` to the failed call's strerror text (or names the input it
 * refused), so callers word their own warnings.
 *
 * Transfer: accept, recv, send and poll retry a call interrupted by a
 * signal (EINTR) instead of treating it as a peer failure. That
 * matters for any resident process — tetrisd fields SIGTERM for its
 * graceful drain, bench binaries field SIGINT for cancellation —
 * where a signal landing mid-accept() or mid-recv() must not drop a
 * request, truncate a response, or lose a metrics scrape.
 * connectTcp and connectUnix do not retry: they reach only a
 * loopback port or a Unix path, where connect returns without
 * waiting unless the listener's backlog is full.
 *
 * The transfer helpers are thin: no buffering, no ownership, no
 * timeouts of their own (callers arm setTimeouts or poll first). A
 * receive timeout surfaces as EAGAIN/EWOULDBLOCK, which the *All
 * variants report as a short transfer so a stuck peer still cannot
 * wedge a serving thread forever.
 */

#ifndef TETRIS_COMMON_NET_HH
#define TETRIS_COMMON_NET_HH

#include <cstddef>
#include <string>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

namespace tetris::net
{

/**
 * True iff listenTcp accepts `host`: an IPv4 literal, or "localhost"
 * or empty, which both mean 127.0.0.1.
 */
bool isTcpHost(const std::string &host);

/** True iff `path` fits a Unix socket address with its terminator. */
bool fitsUnixPath(const std::string &path);

/**
 * TCP listener on `host` (see isTcpHost) and `port` (0 picks an
 * ephemeral one) with SO_REUSEADDR. Returns the fd and stores the
 * bound port in `bound_port`, or -1 with `err` set.
 */
int listenTcp(const std::string &host, int port, int backlog,
              int &bound_port, std::string &err);

/**
 * Unix-domain listener on `path`. A stale socket file at `path` is
 * unlinked first; the caller unlinks it again when it closes the fd.
 * Returns the fd, or -1 with `err` set.
 */
int listenUnix(const std::string &path, int backlog, std::string &err);

/**
 * TCP connection to 127.0.0.1:`port`. A `timeout_s` > 0 is armed with
 * setTimeouts before the connect, so it bounds the handshake too.
 * Returns the fd, or -1 with `err` set.
 */
int connectTcp(int port, std::string &err, int timeout_s = 0);

/** Connection to the Unix-domain socket at `path`, or -1 with `err`. */
int connectUnix(const std::string &path, std::string &err);

/** Arm SO_RCVTIMEO and SO_SNDTIMEO of `fd` to `seconds`. */
void setTimeouts(int fd, int seconds);

/**
 * accept(2) retrying on EINTR. Also retries the transient
 * per-connection errors a listener must shrug off (ECONNABORTED).
 * Returns the connected fd, or -1 with errno set on a real failure.
 */
int acceptRetry(int listen_fd, struct sockaddr *addr, socklen_t *len);

/** recv(2) retrying on EINTR. Semantics of recv otherwise. */
ssize_t recvRetry(int fd, void *buf, size_t len, int flags);

/** send(2) retrying on EINTR. Semantics of send otherwise. */
ssize_t sendRetry(int fd, const void *buf, size_t len, int flags);

/** poll(2) retrying on EINTR (the timeout is not re-armed exactly,
 *  which every caller here — periodic wakeup loops — tolerates). */
int pollRetry(struct pollfd *fds, nfds_t nfds, int timeout_ms);

/**
 * A server's wake pipe: its loops poll fd() for POLLIN beside their
 * sockets, and wake() ends every such poll at once and for good (its
 * byte is never read). If the pipe cannot open, fd() is -1, which
 * poll ignores, and the loops fall back to their poll timeouts.
 */
class WakeFd
{
  public:
    WakeFd();
    ~WakeFd();
    WakeFd(const WakeFd &) = delete;
    WakeFd &operator=(const WakeFd &) = delete;
    int fd() const { return fds_[0]; }
    void wake();

  private:
    int fds_[2] = {-1, -1};
};

/**
 * Write exactly `len` bytes. Retries EINTR and short writes; sends
 * with MSG_NOSIGNAL where available so a dead peer yields EPIPE, not
 * a process-killing SIGPIPE. Returns false if the peer went away or
 * the send timeout expired before everything was written.
 */
bool sendAll(int fd, const void *data, size_t len);

/**
 * Read exactly `len` bytes. Retries EINTR and short reads. Returns
 * false on EOF, error, or receive timeout before `len` arrived —
 * the caller cannot distinguish a truncated message from a closed
 * peer, and never needs to: both mean "this conversation is over".
 */
bool recvAll(int fd, void *data, size_t len);

} // namespace tetris::net

#endif // TETRIS_COMMON_NET_HH
