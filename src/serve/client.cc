#include "serve/client.hh"

#include <unistd.h>

#include "common/net.hh"
#include "serialize/artifact.hh"

namespace tetris::serve
{

std::unique_ptr<ServeClient>
ServeClient::connectTcp(int port, std::string &err)
{
    const int fd = net::connectTcp(port, err);
    return fd < 0 ? nullptr
                  : std::unique_ptr<ServeClient>(new ServeClient(fd));
}

std::unique_ptr<ServeClient>
ServeClient::connectUnix(const std::string &path, std::string &err)
{
    const int fd = net::connectUnix(path, err);
    return fd < 0 ? nullptr
                  : std::unique_ptr<ServeClient>(new ServeClient(fd));
}

ServeClient::ServeClient(int fd) : fd_(fd)
{
    // Clients wait out real compilations; 60s bounds a dead server.
    net::setTimeouts(fd_, 60);
}

ServeClient::~ServeClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ServeClient::submit(const SubmitRequest &req, Response &out)
{
    out = Response();
    if (!sendFrame(fd_, FrameType::Submit, encodeSubmit(req))) {
        out.errorCode = "transport";
        out.errorDetail = "send failed";
        return false;
    }
    FrameType type = FrameType::Error;
    std::string payload;
    RecvStatus st =
        recvFrame(fd_, kDefaultMaxFrameBytes, type, payload);
    if (st != RecvStatus::Ok) {
        out.errorCode = "transport";
        out.errorDetail = recvStatusName(st);
        return false;
    }
    if (type == FrameType::Error) {
        ErrorFrame e;
        if (decodeError(payload, e)) {
            out.errorCode = e.code;
            out.errorDetail = e.detail;
        } else {
            out.errorCode = "transport";
            out.errorDetail = "undecodable error frame";
        }
        return true;
    }
    if (type != FrameType::Result) {
        out.errorCode = "transport";
        out.errorDetail = "unexpected response frame type";
        return false;
    }
    ResultFrame rf;
    if (!decodeResult(payload, rf)) {
        out.errorCode = "transport";
        out.errorDetail = "undecodable result frame";
        return false;
    }
    // The artifact is a complete .tca image keyed by the server's
    // job key: the same total decode the disk cache runs, so a
    // corrupted or mismatched response is caught right here.
    if (!serialize::decodeArtifact(rf.artifact, rf.jobKey,
                                   out.result)) {
        out.errorCode = "transport";
        out.errorDetail = "artifact image failed to decode";
        return false;
    }
    out.ok = true;
    out.jobKey = rf.jobKey;
    out.verify = rf.verify;
    out.serverMs = rf.serverMs;
    return true;
}

bool
ServeClient::ping()
{
    if (!sendFrame(fd_, FrameType::Ping, {}))
        return false;
    FrameType type = FrameType::Error;
    std::string payload;
    return recvFrame(fd_, kDefaultMaxFrameBytes, type, payload) ==
               RecvStatus::Ok &&
           type == FrameType::Pong;
}

bool
ServeClient::statsText(std::string &out)
{
    if (!sendFrame(fd_, FrameType::Stats, {}))
        return false;
    FrameType type = FrameType::Error;
    std::string payload;
    if (recvFrame(fd_, kDefaultMaxFrameBytes, type, payload) !=
            RecvStatus::Ok ||
        type != FrameType::StatsText)
        return false;
    out = std::move(payload);
    return true;
}

} // namespace tetris::serve
