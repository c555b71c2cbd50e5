#include "common/net.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tetris::net
{

namespace
{

#if defined(MSG_NOSIGNAL)
constexpr int kNoSigPipe = MSG_NOSIGNAL;
#else
constexpr int kNoSigPipe = 0;
#endif

/** IPv4 address of `host` (see isTcpHost) and `port`; false if
 *  `host` is none. */
bool
tcpAddress(const std::string &host, int port, struct sockaddr_in &out)
{
    const std::string h =
        host.empty() || host == "localhost" ? "127.0.0.1" : host;
    std::memset(&out, 0, sizeof(out));
    out.sin_family = AF_INET;
    out.sin_port = htons(static_cast<uint16_t>(port));
    return ::inet_pton(AF_INET, h.c_str(), &out.sin_addr) == 1;
}

/** Unix-domain address of `path`; false if it does not fit. */
bool
unixAddress(const std::string &path, struct sockaddr_un &out)
{
    if (!fitsUnixPath(path))
        return false;
    std::memset(&out, 0, sizeof(out));
    out.sun_family = AF_UNIX;
    std::memcpy(out.sun_path, path.c_str(), path.size());
    return true;
}

/** strerror(errno) into `err`, the fd closed; always -1. */
int
fail(int fd, std::string &err)
{
    err = std::strerror(errno);
    if (fd >= 0)
        ::close(fd);
    return -1;
}

/** Socket of `family` bound to `sa` and listening, or -1 and `err`. */
int
bindAndListen(int family, const struct sockaddr *sa, socklen_t len,
              int backlog, std::string &err)
{
    const int fd = ::socket(family, SOCK_STREAM, 0);
    if (fd < 0)
        return fail(fd, err);
    // A restarted daemon must be able to rebind a TCP port whose old
    // connections sit in TIME_WAIT. A Unix path has no such state;
    // listenUnix unlinks a stale one instead.
    if (family == AF_INET) {
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    }
    if (::bind(fd, sa, len) != 0 || ::listen(fd, backlog) != 0)
        return fail(fd, err);
    return fd;
}

/** Connect a new socket of `family` to `sa`, or -1 and `err`. */
int
connectTo(int family, const struct sockaddr *sa, socklen_t len,
          int timeout_s, std::string &err)
{
    const int fd = ::socket(family, SOCK_STREAM, 0);
    if (fd < 0)
        return fail(fd, err);
    if (timeout_s > 0)
        setTimeouts(fd, timeout_s);
    if (::connect(fd, sa, len) != 0)
        return fail(fd, err);
    return fd;
}

} // namespace

bool
isTcpHost(const std::string &host)
{
    struct sockaddr_in sa;
    return tcpAddress(host, 0, sa);
}

bool
fitsUnixPath(const std::string &path)
{
    return path.size() < sizeof(sockaddr_un::sun_path);
}

int
listenTcp(const std::string &host, int port, int backlog,
          int &bound_port, std::string &err)
{
    struct sockaddr_in sa;
    if (!tcpAddress(host, port, sa)) {
        err = "invalid TCP host '" + host + "'";
        return -1;
    }
    const int fd =
        bindAndListen(AF_INET, reinterpret_cast<struct sockaddr *>(&sa),
                      sizeof(sa), backlog, err);
    if (fd < 0)
        return -1;
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&bound),
                      &len) != 0)
        return fail(fd, err);
    bound_port = ntohs(bound.sin_port);
    return fd;
}

int
listenUnix(const std::string &path, int backlog, std::string &err)
{
    struct sockaddr_un sa;
    if (!unixAddress(path, sa)) {
        err = "unix socket path too long";
        return -1;
    }
    ::unlink(path.c_str()); // stale socket from a previous run
    return bindAndListen(AF_UNIX, reinterpret_cast<struct sockaddr *>(&sa),
                         sizeof(sa), backlog, err);
}

int
connectTcp(int port, std::string &err, int timeout_s)
{
    struct sockaddr_in sa;
    tcpAddress("127.0.0.1", port, sa);
    return connectTo(AF_INET, reinterpret_cast<struct sockaddr *>(&sa),
                     sizeof(sa), timeout_s, err);
}

int
connectUnix(const std::string &path, std::string &err)
{
    struct sockaddr_un sa;
    if (!unixAddress(path, sa)) {
        err = "unix socket path too long";
        return -1;
    }
    return connectTo(AF_UNIX, reinterpret_cast<struct sockaddr *>(&sa),
                     sizeof(sa), 0, err);
}

void
setTimeouts(int fd, int seconds)
{
    struct timeval tmo;
    tmo.tv_sec = seconds;
    tmo.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tmo, sizeof(tmo));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tmo, sizeof(tmo));
}

int
acceptRetry(int listen_fd, struct sockaddr *addr, socklen_t *len)
{
    for (;;) {
        int fd = ::accept(listen_fd, addr, len);
        if (fd >= 0)
            return fd;
        if (errno == EINTR || errno == ECONNABORTED)
            continue;
        return -1;
    }
}

ssize_t
recvRetry(int fd, void *buf, size_t len, int flags)
{
    for (;;) {
        ssize_t n = ::recv(fd, buf, len, flags);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

ssize_t
sendRetry(int fd, const void *buf, size_t len, int flags)
{
    for (;;) {
        ssize_t n = ::send(fd, buf, len, flags);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

int
pollRetry(struct pollfd *fds, nfds_t nfds, int timeout_ms)
{
    for (;;) {
        int r = ::poll(fds, nfds, timeout_ms);
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

WakeFd::WakeFd()
{
    if (::pipe(fds_) != 0)
        fds_[0] = fds_[1] = -1;
}

WakeFd::~WakeFd()
{
    for (int fd : fds_)
        if (fd >= 0)
            ::close(fd);
}

void
WakeFd::wake()
{
    const char byte = 1;
    while (fds_[1] >= 0 && ::write(fds_[1], &byte, 1) < 0 &&
           errno == EINTR) {
    }
}

bool
sendAll(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    size_t off = 0;
    while (off < len) {
        ssize_t n = sendRetry(fd, p + off, len - off, kNoSigPipe);
        if (n <= 0)
            return false; // peer gone or send timeout
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
recvAll(int fd, void *data, size_t len)
{
    char *p = static_cast<char *>(data);
    size_t off = 0;
    while (off < len) {
        ssize_t n = recvRetry(fd, p + off, len - off, 0);
        if (n <= 0)
            return false; // EOF, error, or receive timeout
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace tetris::net
