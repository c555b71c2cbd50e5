/**
 * @file
 * serve-mixed: a ServeServer on loopback TCP inside this process,
 * driven by one client connection in a closed loop (the client waits
 * for each reply before sending again, as a VQA optimiser loop does).
 * One request is in flight at a time, so a round never needs more than
 * one vCPU: with two connections the round wall spread 16-29% between
 * runs on a shared host.
 *
 * The engine has no disk tier. Its writes (a file created and renamed
 * per miss) wait on the filesystem journal the host's other tenants
 * share: beside a process rewriting a file with fsync, a round's wall
 * rose 30% while its CPU rose 6%, and the round wall spread 23%
 * between runs.
 *
 * Set-up compiles 16 hot 8-qubit programs on an 8-qubit line. After
 * that every tenth request is a program the server has never seen and
 * the others cycle through the hot pool in a seeded order, so the
 * median request is a memory-cache hit (wire and codec) and the tail
 * is a miss that compiles and verifies. The seed picks the
 * programs and the request order. This is the only workload where the
 * serve layer runs.
 *
 * Every round starts a fresh server and sends the same 1,000
 * requests. New programs stay in the memory cache, so on
 * one long-lived server each round would run against more state than
 * the last (round walls rose 40% over eight rounds), and a faster
 * build would be measured against a bigger cache.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "bench.hh"
#include "chem/uccsd.hh"
#include "common/rng.hh"
#include "hardware/topologies.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace perfbench
{

using namespace tetris;

namespace
{

constexpr int kQubits = 8;
constexpr int kHotPool = 16;
constexpr size_t kFreshEvery = 10;

/** Requests per round; a p99 needs 1,000 for 10 samples beyond it. */
size_t
roundSize(const Args &args)
{
    return args.small() ? 100 : 1000;
}

/** A running server with its hot pool compiled. */
struct ServeSetup
{
    std::unique_ptr<Engine> engine;
    std::unique_ptr<serve::ServeServer> server;
    std::vector<serve::SubmitRequest> hot;
    /** CNOTs of each hot program as set-up compiled it. */
    std::vector<size_t> hotCnots;
    /** Seeded order in which requests cycle through the hot pool. */
    std::vector<size_t> order;
    double chemSeconds = 0.0;
};

ServeSetup
startServer(const Args &args, Tracing &tracing, int run, Report &r)
{
    const int64_t root =
        tracing.spans.open("setup", SpanLog::kNoParent, run);
    ServeSetup s;
    s.engine = std::make_unique<Engine>(engineOptions(&tracing.engine));
    serve::ServeOptions opts;
    opts.tcpHost = "127.0.0.1";
    opts.tcpPort = 0;
    opts.maxClients = 8;
    opts.maxQueueDepth = 256;
    opts.maxFrameBytes = serve::kDefaultMaxFrameBytes;
    s.server = serve::ServeServer::start(*s.engine, opts);
    if (s.server == nullptr)
        throw std::runtime_error("cannot start the server");

    const CouplingGraph hw = lineTopology(kQubits);
    for (int i = 0; i < kHotPool; ++i) {
        const uint64_t t0 = nowNs();
        auto blocks = buildSyntheticUcc(kQubits, mixSeed(args.seed, 3, i));
        const uint64_t t1 = nowNs();
        tracing.spans.add("chem.build", root, run, t0, t1);
        s.chemSeconds += secondsBetween(t0, t1);
        s.hot.push_back(serve::makeSubmitRequest(
            "hot-" + std::to_string(i), "", blocks, hw));
    }
    for (size_t i = 0; i < s.hot.size(); ++i)
        s.order.push_back(i);
    Rng rng(mixSeed(args.seed, 5, 0));
    rng.shuffle(s.order);

    std::string err;
    auto client = serve::ServeClient::connectTcp(s.server->port(), err);
    if (client == nullptr)
        throw std::runtime_error("cannot connect: " + err);
    for (const auto &req : s.hot) {
        serve::ServeClient::Response resp;
        if (!client->submit(req, resp) || !resp.ok ||
            resp.verify != serve::WireVerify::Pass) {
            r.fail("serve: hot program " + req.name + " did not compile");
            s.hotCnots.push_back(0);
            continue;
        }
        s.hotCnots.push_back(resp.result.stats.cnotCount);
    }
    tracing.spans.close(root);
    return s;
}

/** One request as the client saw it. */
struct Sample
{
    /** +infinity for a refused or failed request. */
    double rttMs = 0.0;
    double serverMs = 0.0;
    bool ok = false;
    bool fresh = false;
    /** Pauli strings in the request (source instructions). */
    uint64_t strings = 0;
    CompileStats stats;
};

struct Round
{
    double wall = 0.0;
    double cpu = 0.0;
    double chemSeconds = 0.0;
    std::vector<Sample> samples;
    /** Results received, kept for the traced round's codec pass. */
    std::vector<CompileResult> results;
};

/**
 * Send requests 0..roundSize-1 over one connection, each after the
 * reply to the one before.
 */
Round
drive(const ServeSetup &s, const Args &args, Tracing &tracing, int run)
{
    const size_t limit = roundSize(args);
    const CouplingGraph hw = lineTopology(kQubits);
    std::string err;
    auto client = serve::ServeClient::connectTcp(s.server->port(), err);
    if (client == nullptr)
        throw std::runtime_error("cannot connect: " + err);
    const bool keep = tracing.spans.enabled();
    Round round;
    const int64_t root =
        tracing.spans.open("round", SpanLog::kNoParent, run);

    const double cpu0 = processCpuSeconds();
    const uint64_t start = nowNs();
    for (size_t k = 0; k < limit; ++k) {
        Sample sample;
        sample.fresh = k % kFreshEvery == kFreshEvery - 1;
        serve::SubmitRequest fresh;
        size_t hot = 0;
        if (sample.fresh) {
            const uint64_t c0 = nowNs();
            fresh = serve::makeSubmitRequest(
                "fresh-" + std::to_string(k), "",
                buildSyntheticUcc(kQubits, mixSeed(args.seed, 4, k)), hw);
            const uint64_t c1 = nowNs();
            tracing.spans.add("chem.build", root, run, c0, c1);
            round.chemSeconds += secondsBetween(c0, c1);
        } else {
            hot = s.order[(k - k / kFreshEvery) % s.order.size()];
        }
        const serve::SubmitRequest &req = sample.fresh ? fresh : s.hot[hot];
        for (const auto &block : req.blocks)
            sample.strings += block.strings.size();

        serve::ServeClient::Response resp;
        const int64_t span =
            tracing.spans.open("ServeClient::submit", root, run, req.name);
        const uint64_t t0 = nowNs();
        const bool sent = client->submit(req, resp);
        const uint64_t t1 = nowNs();
        tracing.spans.close(span);

        sample.ok = sent && resp.ok &&
                    resp.verify == serve::WireVerify::Pass &&
                    (sample.fresh ||
                     resp.result.stats.cnotCount == s.hotCnots[hot]);
        sample.rttMs = sample.ok ? static_cast<double>(t1 - t0) / 1e6
                                 : std::numeric_limits<double>::infinity();
        sample.serverMs = resp.serverMs;
        sample.stats = resp.result.stats;
        round.samples.push_back(sample);
        if (keep && sample.ok)
            round.results.push_back(std::move(resp.result));
        if (!sent)
            break; // the connection is unusable
    }
    round.wall = secondsBetween(start, nowNs());
    round.cpu = processCpuSeconds() - cpu0;
    tracing.spans.close(root);
    return round;
}

/** A p99 with fewer than 10 samples beyond it is not reported (NaN). */
double
p99(const std::vector<double> &samples)
{
    const Percentile p = percentile(samples, 0.99);
    return p.beyond >= 10 ? p.value : std::numeric_limits<double>::quiet_NaN();
}

/**
 * Check a round: every request answered with a Pass verdict. Returns
 * the failed requests and adds the round's results to `q`.
 */
uint64_t
checkRound(const Round &round, size_t expected, Report &r, Quality &q)
{
    uint64_t failed = expected - std::min(expected, round.samples.size());
    for (const Sample &s : round.samples) {
        failed += s.ok ? 0 : 1;
        q.add(s.stats);
    }
    if (failed != 0)
        r.fail("serve: " + std::to_string(failed) + " of " +
               std::to_string(expected) + " requests failed");
    return failed;
}

} // namespace

void
runServe(const Args &args, Report &r, Tracing &tracing)
{
    const size_t requests = roundSize(args);
    reportEngineConfig(r);
    r.setConfig("serve.transport", "loopback TCP, in process");
    r.setConfig("serve.loop", "closed, 1 client connection");
    r.setConfig("serve.max_clients", "8");
    r.setConfig("serve.max_queue_depth", "256");
    r.setConfig("serve.programs", "16 hot + 1 new in every 10 requests, "
                                  "8-qubit UCC on an 8-qubit line");
    r.setConfig("serve.round", std::to_string(requests) +
                                   " requests on a freshly started server");

    std::vector<double> setups;
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> rtt;
    std::vector<double> server;
    Quality first;
    uint64_t strings = 0;
    double rss_mb = 0.0;
    const uint64_t start = nowNs();
    while (moreSetups(setups) ||
           secondsBetween(start, nowNs()) < args.seconds) {
        const uint64_t t0 = nowNs();
        ServeSetup s = startServer(args, tracing, 0, r);
        setups.push_back(secondsBetween(t0, nowNs()));
        Round round = drive(s, args, tracing, 0);
        r.attempted += requests;
        Quality q;
        r.failed += checkRound(round, requests, r, q);
        if (walls.empty()) {
            first = q;
            rss_mb = peakRssMb();
            for (const Sample &smp : round.samples)
                strings += smp.strings;
        } else if (q != first) {
            r.fail("serve: quality counts changed between rounds");
        }
        walls.push_back(round.wall);
        cpus.push_back(round.cpu);
        for (const Sample &smp : round.samples) {
            rtt.push_back(smp.rttMs);
            server.push_back(smp.serverMs);
        }
        char line[96];
        std::snprintf(line, sizeof(line), "round %zu: wall %.4f s, cpu %.4f s",
                      walls.size(), round.wall, round.cpu);
        r.note(line);
    }

    const double wall = median(walls);
    r.e2e("setup_s", median(setups), "s");
    r.e2e("wall_s", wall, "s");
    r.e2e("rtt_p50_ms", median(rtt), "ms");
    r.e2e("rps", static_cast<double>(requests) / wall, "1/s");
    r.e2e("instr_per_s", static_cast<double>(strings) / wall, "1/s");
    r.e2e("cpu_s", median(cpus), "s");
    r.e2e("peak_rss_mb", rss_mb, "MB");
    first.report(r);
    r.note(describe("rtt p50", percentile(rtt, 0.50), "ms"));
    r.note(describe("rtt p99", percentile(rtt, 0.99), "ms"));
    r.note(describe("server p50", percentile(server, 0.50), "ms"));

    if (!args.trace)
        return;
    tracing.enable();
    ServeSetup s = startServer(args, tracing, 1, r);
    const EngineTotals before = EngineTotals::read(*s.engine);
    Round round = drive(s, args, tracing, 1);
    const EngineTotals after = EngineTotals::read(*s.engine);
    r.attempted += requests;
    Quality q;
    r.failed += checkRound(round, requests, r, q);
    if (q != first)
        r.fail("serve: traced round changed the quality counts");

    reportEngineLayers(r, after.since(before), round.wall);
    reportQualityLayers(r, q);
    uint64_t blocks = 0;
    std::vector<double> t_rtt;
    std::vector<double> t_server;
    std::vector<double> t_wire;
    for (const Sample &smp : round.samples) {
        if (smp.fresh)
            blocks += kQubits * kQubits;
        t_rtt.push_back(smp.rttMs);
        t_server.push_back(smp.serverMs);
        t_wire.push_back(smp.rttMs - smp.serverMs);
    }
    r.layer("core.blocks", static_cast<double>(blocks), "count");
    r.layer("chem.build_s", s.chemSeconds + round.chemSeconds, "s");
    const Percentile tail = percentile(t_rtt, 0.99);
    r.layer("serve.rtt_p99_ms", p99(t_rtt), "ms");
    r.layer("serve.samples", static_cast<double>(tail.samples), "count");
    r.layer("serve.samples_beyond_p99", static_cast<double>(tail.beyond),
            "count");
    r.layer("serve.server_ms_p50", median(t_server), "ms");
    r.layer("serve.server_ms_p99", p99(t_server), "ms");
    r.layer("serve.wire_ms_p50", median(t_wire), "ms");
    r.layer("serve.wire_ms_p99", p99(t_wire), "ms");
    CodecMeter codec(tracing, 1);
    for (const CompileResult &res : round.results)
        codec.add(res);
    codec.report(r);
    r.layer("trace.overhead_pct", (round.wall / wall - 1.0) * 100.0, "%");
}

} // namespace perfbench
