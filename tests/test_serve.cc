/**
 * @file
 * Serve-layer tests: the TSP1 frame codec (header/submit/result/
 * error round-trips, total decoding of malformed payloads, a seeded
 * decoder fuzz), end-to-end submissions through a live ServeServer
 * (artifact round-trip, cross-client dedup, ping/stats), protocol
 * robustness against a hostile peer (garbage headers, oversize
 * length prefixes, version skew, checksum corruption, mid-frame
 * disconnects, a seeded frame fuzz — the server must answer a typed
 * error or hang up, never crash, hang, or over-allocate), and the
 * graceful-drain contract (in-flight requests answered, /healthz
 * reporting "draining", post-drain connects refused), and the
 * listeners themselves (a Unix-only server, refused set-ups and
 * connects). The TSan job runs this suite for the
 * accept/handler/drain interleavings.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "chem/uccsd.hh"
#include "common/net.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "obs/obs_server.hh"
#include "serialize/binary.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/server.hh"

namespace tetris
{
namespace
{

using serve::ErrorFrame;
using serve::FrameHeader;
using serve::FrameType;
using serve::RecvStatus;
using serve::ResultFrame;
using serve::ServeClient;
using serve::SubmitRequest;
using serve::WireVerify;

SubmitRequest
sampleRequest(int qubits = 4, uint64_t seed = 7)
{
    return serve::makeSubmitRequest(
        "t", "", buildSyntheticUcc(qubits, seed),
        lineTopology(qubits));
}

// ---- codec ---------------------------------------------------------

TEST(ServeFrameCodec, HeaderRoundTrip)
{
    serialize::BinaryWriter w;
    serve::encodeFrameHeader(w, FrameType::Submit, 123);
    ASSERT_EQ(w.data().size(), serve::kFrameHeaderBytes);

    FrameHeader h;
    ASSERT_TRUE(serve::decodeFrameHeader(w.data(), h));
    EXPECT_EQ(h.magic, serve::kFrameMagic);
    EXPECT_EQ(h.version, serve::kProtocolVersion);
    EXPECT_EQ(h.type, static_cast<uint32_t>(FrameType::Submit));
    EXPECT_EQ(h.payloadLen, 123u);

    // Short input is the one failure decodeFrameHeader reports.
    const std::string &bytes = w.data();
    for (size_t k = 0; k < bytes.size(); ++k)
        EXPECT_FALSE(serve::decodeFrameHeader(
            serialize::ByteSpan(bytes.data(), k), h));
}

TEST(ServeFrameCodec, SubmitRoundTrip)
{
    const SubmitRequest req = sampleRequest();
    const std::string payload = serve::encodeSubmit(req);

    SubmitRequest out;
    std::string err;
    ASSERT_TRUE(serve::decodeSubmit(payload, out, err)) << err;
    EXPECT_EQ(out.name, req.name);
    EXPECT_EQ(out.pipelineId, req.pipelineId);
    EXPECT_EQ(out.numQubits, req.numQubits);
    EXPECT_EQ(out.edges, req.edges);
    EXPECT_EQ(out.hwName, req.hwName);
    ASSERT_EQ(out.blocks.size(), req.blocks.size());
    for (size_t b = 0; b < req.blocks.size(); ++b) {
        EXPECT_DOUBLE_EQ(out.blocks[b].theta, req.blocks[b].theta);
        EXPECT_EQ(out.blocks[b].strings, req.blocks[b].strings);
    }

    // Identical wire requests must hash to identical job keys — the
    // property the server's cross-client cache dedup rests on.
    CompileJob a, b;
    ASSERT_TRUE(serve::submitToJob(req, a, err)) << err;
    ASSERT_TRUE(serve::submitToJob(out, b, err)) << err;
    EXPECT_EQ(Engine::jobKey(a), Engine::jobKey(b));
}

TEST(ServeFrameCodec, SubmitDecodeIsTotal)
{
    const std::string good = serve::encodeSubmit(sampleRequest());
    SubmitRequest out;
    std::string err;

    // Every truncation point fails cleanly.
    for (size_t k = 0; k < good.size(); ++k)
        EXPECT_FALSE(serve::decodeSubmit(
            serialize::ByteSpan(good.data(), k), out, err));

    // Trailing junk is rejected, not ignored.
    EXPECT_FALSE(
        serve::decodeSubmit(good + std::string(1, '\0'), out, err));

    auto rejects = [&](SubmitRequest req) {
        SubmitRequest o;
        std::string e;
        EXPECT_FALSE(
            serve::decodeSubmit(serve::encodeSubmit(req), o, e));
        EXPECT_FALSE(e.empty());
    };

    SubmitRequest req = sampleRequest();
    req.blocks[0].strings[0].first[0] = 'A'; // not IXYZ
    rejects(req);

    req = sampleRequest();
    req.blocks[0].strings[0].first += 'X'; // width != numQubits
    rejects(req);

    req = sampleRequest();
    req.edges.emplace_back(0, 99); // endpoint out of range
    rejects(req);

    req = sampleRequest();
    req.edges.emplace_back(2, 2); // self-loop
    rejects(req);

    req = sampleRequest();
    req.blocks.clear(); // no blocks
    rejects(req);

    req = sampleRequest();
    req.blocks[0].strings.clear(); // empty block
    rejects(req);

    req = sampleRequest();
    req.blocks[0].theta = NAN; // non-finite angle
    rejects(req);

    req = sampleRequest();
    req.numQubits = 0;
    rejects(req);

    req = sampleRequest();
    req.numQubits = 1 << 20; // over the wire qubit cap
    rejects(req);
}

TEST(ServeFrameCodec, ResultAndErrorRoundTrip)
{
    ResultFrame rf;
    rf.jobKey = 0xdeadbeefcafef00dull;
    rf.verify = WireVerify::Pass;
    rf.serverMs = 12.5;
    rf.artifact = std::string("\x01\x02\x00\x03", 4);

    ResultFrame ro;
    ASSERT_TRUE(serve::decodeResult(serve::encodeResult(rf), ro));
    EXPECT_EQ(ro.jobKey, rf.jobKey);
    EXPECT_EQ(ro.verify, rf.verify);
    EXPECT_DOUBLE_EQ(ro.serverMs, rf.serverMs);
    EXPECT_EQ(ro.artifact, rf.artifact);

    ErrorFrame ef{"overloaded", "engine backlog full"};
    ErrorFrame eo;
    ASSERT_TRUE(serve::decodeError(serve::encodeError(ef), eo));
    EXPECT_EQ(eo.code, ef.code);
    EXPECT_EQ(eo.detail, ef.detail);

    const std::string enc = serve::encodeResult(rf);
    for (size_t k = 0; k < enc.size(); ++k)
        EXPECT_FALSE(serve::decodeResult(
            serialize::ByteSpan(enc.data(), k), ro));
}

/**
 * Seeded fuzz of the payload decoders: random byte soup and
 * single-byte corruptions of a valid submit image. The decoders are
 * total — any outcome is fine except a crash, hang, or an
 * allocation driven by an unvalidated count.
 */
TEST(ServeFrameCodec, DecoderFuzzNeverCrashes)
{
    std::mt19937_64 rng(0xC0FFEEu); // fixed seed: reproducible
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<size_t> len(0, 512);

    for (int iter = 0; iter < 500; ++iter) {
        std::string noise(len(rng), '\0');
        for (char &c : noise)
            c = static_cast<char>(byte(rng));
        SubmitRequest s;
        ResultFrame r;
        ErrorFrame e;
        FrameHeader h;
        std::string err;
        serve::decodeSubmit(noise, s, err);
        serve::decodeResult(noise, r);
        serve::decodeError(noise, e);
        serve::decodeFrameHeader(noise, h);
    }

    const std::string good = serve::encodeSubmit(sampleRequest());
    for (size_t i = 0; i < good.size(); ++i) {
        std::string flipped = good;
        flipped[i] ^= static_cast<char>(1 + byte(rng) % 255);
        SubmitRequest s;
        std::string err;
        serve::decodeSubmit(flipped, s, err);
    }
}

// ---- live server fixtures ------------------------------------------

struct ServeFixture
{
    Engine engine;
    std::unique_ptr<serve::ServeServer> server;

    explicit ServeFixture(EngineOptions eopts = verifyOpts(),
                          serve::ServeOptions sopts = {})
        : engine(std::move(eopts))
    {
        sopts.tcpPort = 0;
        server = serve::ServeServer::start(engine, sopts);
    }

    static EngineOptions verifyOpts()
    {
        EngineOptions o;
        o.verify = true;
        return o;
    }

    int port() const { return server->port(); }

    std::unique_ptr<ServeClient> connect()
    {
        std::string err;
        auto c = ServeClient::connectTcp(port(), err);
        EXPECT_NE(c, nullptr) << err;
        return c;
    }
};

/** Read one frame off a raw client fd with a test-side deadline. */
RecvStatus
recvWithDeadline(int fd, FrameType &type, std::string &payload)
{
    struct pollfd pfd = {fd, POLLIN, 0};
    if (net::pollRetry(&pfd, 1, 5000) <= 0)
        return RecvStatus::Truncated;
    return serve::recvFrame(fd, serve::kDefaultMaxFrameBytes, type,
                            payload);
}

/** Expect an Error frame with `code` as the next message on fd. */
void
expectErrorFrame(int fd, const std::string &code)
{
    FrameType type = FrameType::Ping;
    std::string payload;
    ASSERT_EQ(recvWithDeadline(fd, type, payload), RecvStatus::Ok);
    ASSERT_EQ(type, FrameType::Error);
    ErrorFrame e;
    ASSERT_TRUE(serve::decodeError(payload, e));
    EXPECT_EQ(e.code, code) << e.detail;
}

TEST(ServeEndToEnd, SubmitRoundTripAndDedup)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);

    const SubmitRequest req = sampleRequest(4, 11);
    ServeClient::Response first;
    ASSERT_TRUE(client->submit(req, first));
    ASSERT_TRUE(first.ok) << first.errorCode << ": "
                          << first.errorDetail;
    EXPECT_EQ(first.verify, WireVerify::Pass);
    EXPECT_GT(first.result.stats.totalGateCount, 0u);
    EXPECT_FALSE(first.result.circuit.gates().empty());

    // Same program from a second connection: memory-cache hit, same
    // key, same artifact bytes end to end.
    auto client2 = fx.connect();
    ASSERT_NE(client2, nullptr);
    ServeClient::Response second;
    ASSERT_TRUE(client2->submit(req, second));
    ASSERT_TRUE(second.ok);
    EXPECT_EQ(second.jobKey, first.jobKey);
    EXPECT_EQ(second.verify, WireVerify::Pass);
    EXPECT_EQ(second.result.stats.cnotCount,
              first.result.stats.cnotCount);
    EXPECT_GE(fx.engine.metrics().count("jobs.deduplicated"), 1u);
    EXPECT_EQ(fx.engine.metrics().count("serve.results"), 2u);
}

TEST(ServeEndToEnd, ResultKeyIsTheJobKey)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);

    // The server reads the key off the engine's entry instead of
    // hashing the job a second time; it must still be the job's key.
    const SubmitRequest req = sampleRequest(5, 23);
    ServeClient::Response res;
    ASSERT_TRUE(client->submit(req, res));
    ASSERT_TRUE(res.ok) << res.errorCode << ": " << res.errorDetail;
    CompileJob job;
    std::string err;
    ASSERT_TRUE(serve::submitToJob(req, job, err)) << err;
    EXPECT_EQ(res.jobKey, Engine::jobKey(job));
}

TEST(ServeEndToEnd, PingAndStats)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->ping());

    std::string stats;
    ASSERT_TRUE(client->statsText(stats));
    EXPECT_NE(stats.find("tetris_count"), std::string::npos);
    EXPECT_NE(stats.find("serve.connections"), std::string::npos);
}

TEST(ServeEndToEnd, BadSubmitPayloadAnswersBadRequest)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);

    // Well-framed Submit whose payload is not a submit record.
    ASSERT_TRUE(serve::sendFrame(client->fd(), FrameType::Submit,
                                 std::string("not a request")));
    expectErrorFrame(client->fd(), "bad_request");

    // Framing was intact, so the connection still serves.
    EXPECT_TRUE(client->ping());
}

// ---- protocol robustness -------------------------------------------

TEST(ServeRobustness, GarbageHeaderAnswersBadMagic)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);

    std::string junk(serve::kFrameHeaderBytes, '\x5a');
    ASSERT_TRUE(
        net::sendAll(client->fd(), junk.data(), junk.size()));
    expectErrorFrame(client->fd(), "bad_magic");

    // The server hung up on us but must itself still be serving.
    auto again = fx.connect();
    ASSERT_NE(again, nullptr);
    EXPECT_TRUE(again->ping());
}

TEST(ServeRobustness, OversizeLengthPrefixRejectedUnallocated)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);

    // A hostile 2^62-byte promise: the budget check fires from the
    // header alone, so the reply arrives without any payload read —
    // and with no 4-EiB allocation attempt.
    serialize::BinaryWriter w;
    serve::encodeFrameHeader(w, FrameType::Submit, 1ull << 62);
    ASSERT_TRUE(
        net::sendAll(client->fd(), w.data().data(), w.data().size()));
    expectErrorFrame(client->fd(), "frame_too_large");
    EXPECT_GE(fx.engine.metrics().count("serve.bad_frames"), 1u);
}

TEST(ServeRobustness, VersionSkewAnswersTyped)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);

    // Version 2 is the FNV-1a, 17-byte-gate layout and version 3
    // carries images with timings: a peer still speaking either gets
    // the typed answer.
    for (uint32_t version : {2u, 3u, serve::kProtocolVersion + 7}) {
        SCOPED_TRACE(version);
        auto client = fx.connect();
        ASSERT_NE(client, nullptr);
        serialize::BinaryWriter w;
        w.u32(serve::kFrameMagic);
        w.u32(version);
        w.u32(static_cast<uint32_t>(FrameType::Ping));
        w.u64(0);
        ASSERT_TRUE(net::sendAll(client->fd(), w.data().data(),
                                 w.data().size()));
        expectErrorFrame(client->fd(), "version_skew");
    }
}

TEST(ServeRobustness, CorruptChecksumAnswersTyped)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);

    std::string frame = serve::encodeFrame(
        FrameType::Submit, serve::encodeSubmit(sampleRequest()));
    frame.back() ^= 0x01; // flip one trailer bit
    ASSERT_TRUE(
        net::sendAll(client->fd(), frame.data(), frame.size()));
    expectErrorFrame(client->fd(), "bad_checksum");
}

TEST(ServeRobustness, MidFrameDisconnectLeavesServerServing)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);

    { // half a header, then vanish
        auto client = fx.connect();
        ASSERT_NE(client, nullptr);
        ASSERT_TRUE(net::sendAll(client->fd(), "TSP", 3));
    }
    { // full header promising 100 bytes, deliver 10, vanish
        auto client = fx.connect();
        ASSERT_NE(client, nullptr);
        serialize::BinaryWriter w;
        serve::encodeFrameHeader(w, FrameType::Submit, 100);
        ASSERT_TRUE(net::sendAll(client->fd(), w.data().data(),
                                 w.data().size()));
        ASSERT_TRUE(net::sendAll(client->fd(), "0123456789", 10));
    }

    auto client = fx.connect();
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->ping());
    ServeClient::Response resp;
    ASSERT_TRUE(client->submit(sampleRequest(), resp));
    EXPECT_TRUE(resp.ok) << resp.errorCode;
}

TEST(ServeRobustness, ServerFramedResponseTypesRejectedButKept)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);

    // A Result frame is well-formed but only a server may send one.
    ASSERT_TRUE(serve::sendFrame(
        client->fd(), FrameType::Result,
        serve::encodeResult(ResultFrame{})));
    expectErrorFrame(client->fd(), "bad_request");
    EXPECT_TRUE(client->ping());
}

/**
 * Seeded frame fuzz against the live server: connections that spray
 * random bytes (sometimes prefixed with a valid magic to get deeper
 * into the parser) and hang up. After every barrage the server must
 * still complete a clean round-trip. Runtime is bounded: every
 * malformed connection is answered-or-closed without timeouts.
 */
TEST(ServeRobustness, FrameFuzzNeverKillsServer)
{
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);

    std::mt19937_64 rng(0xF00Du); // fixed seed: reproducible
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<size_t> len(1, 96);

    for (int iter = 0; iter < 40; ++iter) {
        auto client = fx.connect();
        ASSERT_NE(client, nullptr);
        std::string noise(len(rng), '\0');
        for (char &c : noise)
            c = static_cast<char>(byte(rng));
        if (iter % 3 == 0) {
            serialize::BinaryWriter w;
            w.u32(serve::kFrameMagic);
            noise = w.data() + noise;
        }
        net::sendAll(client->fd(), noise.data(), noise.size());
        // Briefly drain any typed answer, then hang up — noise too
        // short to even be a header gets no reply until our close,
        // so don't wait on it; correctness is asserted by the final
        // probe.
        struct pollfd pfd = {client->fd(), POLLIN, 0};
        if (net::pollRetry(&pfd, 1, 50) > 0) {
            FrameType type = FrameType::Ping;
            std::string payload;
            serve::recvFrame(client->fd(),
                             serve::kDefaultMaxFrameBytes, type,
                             payload);
        }
    }

    auto probe = fx.connect();
    ASSERT_NE(probe, nullptr);
    EXPECT_TRUE(probe->ping());
    ServeClient::Response resp;
    ASSERT_TRUE(probe->submit(sampleRequest(4, 3), resp));
    EXPECT_TRUE(resp.ok) << resp.errorCode;
}

// ---- graceful drain ------------------------------------------------

/**
 * Wait (up to 10 s) until the engine has taken `n` submissions: past
 * that point each request has passed the server's draining check, so
 * a drain that follows finds it in flight, however slow the build.
 */
void
awaitSubmitted(const Engine &engine, size_t n)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine.submittedCount() < n &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(ServeDrain, InFlightAnsweredHealthzDrainingConnectsRefused)
{
    EngineOptions eopts;
    eopts.verify = true;
    eopts.obsServer = "127.0.0.1:0";
    ServeFixture fx(std::move(eopts));
    ASSERT_NE(fx.server, nullptr);

    auto client = fx.connect();
    ASSERT_NE(client, nullptr);

    // Launch a fresh (uncached) compilation, then drain while it is
    // in flight. drain(false) must let it publish and respond.
    ServeClient::Response resp;
    std::thread submitter([&] {
        client->submit(sampleRequest(6, 99), resp);
    });
    awaitSubmitted(fx.engine, 1);
    fx.server->drain(false);

    submitter.join();
    EXPECT_TRUE(resp.ok) << resp.errorCode << ": "
                         << resp.errorDetail;
    EXPECT_EQ(resp.verify, WireVerify::Pass);

    // The draining flag stays pinned for the rest of the process:
    // /healthz reports it and new connections are refused.
    EXPECT_TRUE(fx.server->draining());
    int status = 0;
    const std::string health =
        obsHttpGet(fx.engine.obsPort(), "/healthz", &status);
    EXPECT_EQ(status, 200);
    EXPECT_NE(health.find("draining"), std::string::npos) << health;

    std::string err;
    auto late = ServeClient::connectTcp(fx.port(), err);
    if (late) {
        // The listener may already have closed (connect refused) or
        // the handshake may have raced the shutdown; either way no
        // new request is served.
        ServeClient::Response r;
        const bool sent = late->submit(sampleRequest(4, 5), r);
        EXPECT_TRUE(!sent || !r.ok);
    }
}

TEST(ServeDrain, CancelQueuedAnswersCancelled)
{
    // One worker thread so a queue actually builds up behind the
    // first compilation.
    EngineOptions eopts;
    eopts.numThreads = 1;
    ServeFixture fx(std::move(eopts));
    ASSERT_NE(fx.server, nullptr);

    constexpr int kClients = 4;
    std::vector<std::unique_ptr<ServeClient>> clients;
    std::vector<ServeClient::Response> resps(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        clients.push_back(fx.connect());
        ASSERT_NE(clients.back(), nullptr);
    }
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            clients[c]->submit(sampleRequest(6, 200 + c), resps[c]);
        });
    awaitSubmitted(fx.engine, kClients);
    fx.server->drain(/*cancel_queued=*/true);
    for (auto &t : threads)
        t.join();

    // Every request got an answer frame: a Result for whatever had
    // started (or finished), compile_cancelled for the rest. None
    // were dropped.
    int results = 0, cancelled = 0;
    for (const auto &r : resps) {
        if (r.ok)
            results++;
        else if (r.errorCode == "compile_cancelled")
            cancelled++;
        else
            ADD_FAILURE() << "unexpected outcome: " << r.errorCode
                          << " (" << r.errorDetail << ")";
    }
    EXPECT_EQ(results + cancelled, kClients);
}

TEST(ServeDrain, IdleServerWithIdleClientDrainsAtOnce)
{
    // drain() wakes the accept loop and the idle handler out of their
    // polls instead of waiting out the 100 ms poll timeout.
    ServeFixture fx;
    ASSERT_NE(fx.server, nullptr);
    auto client = fx.connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->ping()); // the handler is up and idle
    const auto t0 = std::chrono::steady_clock::now();
    fx.server->drain(false);
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took.count(), 50.0);
}

// ---- listeners and connects ----------------------------------------

/** A Unix socket path private to this process and test. */
std::string
socketPath(const char *name)
{
    return ::testing::TempDir() + "tetris_" + name + "_" +
           std::to_string(::getpid()) + ".sock";
}

TEST(ServeListeners, UnixOnlyServerMatchesTcpAndRemovesItsSocket)
{
    const SubmitRequest req = sampleRequest(4, 11);
    ServeFixture tcp;
    ASSERT_NE(tcp.server, nullptr);
    auto tcp_client = tcp.connect();
    ASSERT_NE(tcp_client, nullptr);
    ServeClient::Response over_tcp;
    ASSERT_TRUE(tcp_client->submit(req, over_tcp));
    ASSERT_TRUE(over_tcp.ok) << over_tcp.errorCode;

    // A stale file at the path (a crashed daemon's socket) is
    // replaced, not an error.
    const std::string path = socketPath("unix_only");
    std::ofstream(path).put('x');
    ASSERT_TRUE(std::filesystem::exists(path));

    Engine engine(ServeFixture::verifyOpts());
    serve::ServeOptions opts;
    opts.unixPath = path;
    ASSERT_EQ(opts.tcpPort, -1);
    auto server = serve::ServeServer::start(engine, opts);
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->port(), 0);
    EXPECT_EQ(server->unixPath(), path);

    std::string err;
    auto client = ServeClient::connectUnix(path, err);
    ASSERT_NE(client, nullptr) << err;
    ServeClient::Response over_unix;
    ASSERT_TRUE(client->submit(req, over_unix));
    ASSERT_TRUE(over_unix.ok) << over_unix.errorCode;
    EXPECT_EQ(over_unix.jobKey, over_tcp.jobKey);
    EXPECT_EQ(over_unix.result.stats.cnotCount,
              over_tcp.result.stats.cnotCount);
    EXPECT_EQ(over_unix.verify, WireVerify::Pass);

    server->drain(false);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeListeners, StartRefusesLongUnixPathAndNoListener)
{
    // A refused start leaves the engine as it was: not draining, and
    // still compiling.
    Engine engine;
    auto expectEngineUntouched = [&] {
        EXPECT_FALSE(engine.draining());
        CompileJob job;
        std::string err;
        ASSERT_TRUE(serve::submitToJob(sampleRequest(), job, err)) << err;
        auto result = engine.submit(std::move(job))->get();
        ASSERT_NE(result, nullptr);
        EXPECT_GT(result->stats.cnotCount, 0u);
    };

    serve::ServeOptions none;
    EXPECT_EQ(serve::ServeServer::start(engine, none), nullptr);
    expectEngineUntouched();

    serve::ServeOptions too_long;
    too_long.unixPath =
        std::string(sizeof(sockaddr_un::sun_path), 'x');
    EXPECT_EQ(serve::ServeServer::start(engine, too_long), nullptr);
    expectEngineUntouched();

    // The TCP listener binds, then the Unix path refuses the start.
    serve::ServeOptions tcp_then_long = too_long;
    tcp_then_long.tcpPort = 0;
    EXPECT_EQ(serve::ServeServer::start(engine, tcp_then_long), nullptr);
    expectEngineUntouched();
}

TEST(ServeListeners, ConnectWithoutListenerFailsWithReason)
{
    // A port bound and released again has no listener.
    std::string err;
    int port = 0;
    const int fd = net::listenTcp("127.0.0.1", 0, 1, port, err);
    ASSERT_GE(fd, 0) << err;
    ::close(fd);
    EXPECT_EQ(ServeClient::connectTcp(port, err), nullptr);
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_EQ(ServeClient::connectUnix(socketPath("missing"), err),
              nullptr);
    EXPECT_FALSE(err.empty());
}

} // namespace
} // namespace tetris
