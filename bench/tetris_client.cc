/**
 * @file
 * tetris_client: command-line client for a running tetrisd.
 *
 * Connects over TCP or a Unix socket, submits a synthetic UCC-style
 * workload through the frame protocol, and prints one line per
 * result (job key, verify verdict, gate counts, server-side
 * latency). The artifact in each Result frame is a complete `.tca`
 * image and is re-decoded client-side, so a passing run also proves
 * the wire round-trip bit-exact.
 *
 *   tetris_client --port N [options]
 *   tetris_client --unix PATH [options]
 *
 *   --jobs M       programs to submit on this connection (default 4)
 *   --qubits Q     synthetic program width = device width (default 8)
 *   --seed S       base RNG seed; job j uses S + (j mod --distinct)
 *   --distinct D   distinct programs in the batch (default = jobs;
 *                  lower to exercise the server's cache dedup)
 *   --pipeline ID  registered pipeline id (default: server default)
 *   --name NAME    request-name prefix shown in server metrics
 *   --ping         liveness probe only
 *   --stats        print the server's /metrics snapshot and exit
 *
 * Streaming mode replaces the synthetic batch with a program file:
 *
 *   --file PATH    stream an OpenQASM 2 (.qasm) or Pauli-list program
 *                  through the server in windowed chunks; chunk N+1's
 *                  submit carries chunk N's final layout as its seed
 *                  (protocol v2), exactly like the in-process
 *                  StreamCompiler
 *   --window N     blocks per chunk (default: TETRIS_STREAM_WINDOW
 *                  or 256)
 *
 * Integer flags are strict: --port takes [1, 65535], --qubits
 * [1, 4096] (the wire's cap), --seed any unsigned 64-bit decimal,
 * and --jobs, --distinct and --window [1, 2^20]. Any other value
 * prints the usage and exits 2 before a connection is made.
 *
 * Exit status: 0 when every submission returned a Result with
 * verify != fail, 1 otherwise.
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.hh"
#include "chem/uccsd.hh"
#include "common/env.hh"
#include "frontend/stream_compiler.hh"
#include "hardware/topologies.hh"
#include "serve/client.hh"

namespace
{

/** Upper bound of the count flags (--jobs, --distinct, --window). */
constexpr int64_t kMaxCount = int64_t{1} << 20;

/**
 * `s` as a whole unsigned 64-bit decimal; nullopt on anything else.
 * strtoull alone would take a sign ("-1" wraps to 2^64 - 1), leading
 * blanks and trailing junk.
 */
std::optional<uint64_t>
parseU64(const char *s)
{
    if (*s < '0' || *s > '9')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(s, &end, 10);
    if (errno == ERANGE || *end != '\0')
        return std::nullopt;
    return static_cast<uint64_t>(n);
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--port N | --unix PATH) [--jobs M] [--qubits Q]"
        " [--seed S] [--distinct D] [--pipeline ID] [--name NAME]"
        " [--file PATH] [--window N] [--ping] [--stats]\n",
        argv0);
    return 2;
}

const char *
verifyName(tetris::serve::WireVerify v)
{
    switch (v) {
    case tetris::serve::WireVerify::Pass:
        return "pass";
    case tetris::serve::WireVerify::Fail:
        return "FAIL";
    case tetris::serve::WireVerify::Skipped:
        return "skipped";
    default:
        return "not-run";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tetris;
    using Clock = std::chrono::steady_clock;

    int port = -1;
    std::string unix_path;
    int jobs = 4;
    int qubits = 8;
    uint64_t seed = 1;
    int distinct = 0;
    std::string pipeline_id;
    std::string name_prefix = "client";
    std::string file_path;
    int window = 0; // 0 = resolveStreamWindow (env or 256)
    bool ping_only = false;
    bool stats_only = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // The flag's value in [lo, hi]; false (the usage) otherwise.
        auto bounded = [&](auto &out, int64_t lo, int64_t hi) {
            const char *v = next();
            const auto n = v ? parseBoundedInt(v, lo, hi) : std::nullopt;
            if (n)
                out = static_cast<std::remove_reference_t<decltype(out)>>(*n);
            return n.has_value();
        };
        const char *v = nullptr;
        bool ok = true;
        if (arg == "--port")
            ok = bounded(port, 1, 65535);
        else if (arg == "--unix" && (v = next()))
            unix_path = v;
        else if (arg == "--jobs")
            ok = bounded(jobs, 1, kMaxCount);
        else if (arg == "--qubits")
            ok = bounded(qubits, 1, 4096);
        else if (arg == "--seed") {
            const auto n = (v = next()) ? parseU64(v) : std::nullopt;
            seed = n.value_or(seed);
            ok = n.has_value();
        }
        else if (arg == "--distinct")
            ok = bounded(distinct, 1, kMaxCount);
        else if (arg == "--pipeline" && (v = next()))
            pipeline_id = v;
        else if (arg == "--name" && (v = next()))
            name_prefix = v;
        else if (arg == "--file" && (v = next()))
            file_path = v;
        else if (arg == "--window")
            ok = bounded(window, 1, kMaxCount);
        else if (arg == "--ping")
            ping_only = true;
        else if (arg == "--stats")
            stats_only = true;
        else
            ok = false;
        if (!ok)
            return usage(argv[0]);
    }
    if (port < 0 && unix_path.empty())
        return usage(argv[0]);
    if (distinct < 1)
        distinct = jobs;

    std::string err;
    std::unique_ptr<serve::ServeClient> client =
        unix_path.empty()
            ? serve::ServeClient::connectTcp(port, err)
            : serve::ServeClient::connectUnix(unix_path, err);
    if (!client) {
        std::fprintf(stderr, "tetris_client: connect failed: %s\n",
                     err.c_str());
        return 1;
    }

    if (ping_only) {
        if (!client->ping()) {
            std::fprintf(stderr, "tetris_client: ping failed\n");
            return 1;
        }
        std::printf("pong\n");
        return 0;
    }
    if (stats_only) {
        std::string text;
        if (!client->statsText(text)) {
            std::fprintf(stderr, "tetris_client: stats failed\n");
            return 1;
        }
        std::fputs(text.c_str(), stdout);
        return 0;
    }

    if (!file_path.empty()) {
        using namespace tetris::frontend;
        std::ifstream in(file_path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "tetris_client: cannot open %s\n",
                         file_path.c_str());
            return 1;
        }
        auto src = makeBlockSource(in, SourceFormat::Auto, file_path);
        const int win = resolveStreamWindow(window);

        // The wire's one-width rule: strings are exactly device
        // wide, so the device is built from the program width once
        // the first chunk reveals it.
        std::unique_ptr<CouplingGraph> hw;
        std::vector<int> seed; // chunk 0: identity
        bool all_ok = true;
        size_t chunk_index = 0;
        uint64_t total_blocks = 0;
        while (true) {
            std::vector<PauliBlock> chunk;
            PauliBlock b;
            while (static_cast<int>(chunk.size()) < win) {
                BlockSource::Status s = src->next(b);
                if (s == BlockSource::Status::Block) {
                    chunk.push_back(std::move(b));
                } else if (s == BlockSource::Status::End) {
                    break;
                } else {
                    std::fprintf(stderr,
                                 "tetris_client: parse error: %s\n",
                                 src->error().toText().c_str());
                    return 1;
                }
            }
            if (chunk.empty())
                break;
            if (!hw)
                hw = std::make_unique<CouplingGraph>(
                    lineTopology(src->numQubits()));

            serve::SubmitRequest req = serve::makeSubmitRequest(
                name_prefix + "#" + std::to_string(chunk_index),
                pipeline_id, chunk, *hw, seed);
            serve::ServeClient::Response resp;
            if (!client->submit(req, resp)) {
                std::fprintf(stderr,
                             "tetris_client: chunk %zu transport "
                             "error: %s (%s)\n",
                             chunk_index, resp.errorCode.c_str(),
                             resp.errorDetail.c_str());
                return 1;
            }
            if (!resp.ok) {
                std::fprintf(stderr,
                             "tetris_client: chunk %zu rejected: "
                             "%s (%s)\n",
                             chunk_index, resp.errorCode.c_str(),
                             resp.errorDetail.c_str());
                return 1;
            }
            std::printf("chunk %3zu  key=%016llx  verify=%-7s  "
                        "blocks=%zu  cnots=%zu  server=%.1fms\n",
                        chunk_index,
                        static_cast<unsigned long long>(resp.jobKey),
                        verifyName(resp.verify), chunk.size(),
                        resp.result.stats.cnotCount, resp.serverMs);
            if (resp.verify == serve::WireVerify::Fail)
                all_ok = false;
            seed = resp.result.finalLayout.toPhysical();
            total_blocks += chunk.size();
            ++chunk_index;
        }
        std::printf("streamed %zu chunks (%llu blocks, %llu "
                    "instructions) from %s\n",
                    chunk_index,
                    static_cast<unsigned long long>(total_blocks),
                    static_cast<unsigned long long>(
                        src->instructionsRead()),
                    file_path.c_str());
        return all_ok ? 0 : 1;
    }

    const CouplingGraph hw = lineTopology(qubits);
    bool all_ok = true;
    for (int j = 0; j < jobs; ++j) {
        const uint64_t job_seed =
            seed + static_cast<uint64_t>(j % distinct);
        const std::vector<PauliBlock> blocks =
            buildSyntheticUcc(qubits, job_seed);
        serve::SubmitRequest req = serve::makeSubmitRequest(
            name_prefix + "-" + std::to_string(j), pipeline_id,
            blocks, hw);

        const auto t0 = Clock::now();
        serve::ServeClient::Response resp;
        const bool transport_ok = client->submit(req, resp);
        const double rtt_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count();
        if (!transport_ok) {
            std::fprintf(stderr,
                         "tetris_client: job %d transport error: "
                         "%s (%s)\n",
                         j, resp.errorCode.c_str(),
                         resp.errorDetail.c_str());
            return 1;
        }
        if (!resp.ok) {
            std::fprintf(stderr,
                         "tetris_client: job %d rejected: %s (%s)\n",
                         j, resp.errorCode.c_str(),
                         resp.errorDetail.c_str());
            all_ok = false;
            continue;
        }
        const CompileStats &s = resp.result.stats;
        std::printf("job %2d  key=%016llx  verify=%-7s  cnots=%zu  "
                    "depth=%zu  server=%.1fms  rtt=%.1fms\n",
                    j, static_cast<unsigned long long>(resp.jobKey),
                    verifyName(resp.verify), s.cnotCount, s.depth,
                    resp.serverMs, rtt_ms);
        if (resp.verify == serve::WireVerify::Fail)
            all_ok = false;
    }
    return all_ok ? 0 : 1;
}
