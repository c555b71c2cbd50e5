/**
 * @file
 * Streaming-frontend benchmark -> BENCH_stream.json.
 *
 * Generates one program per workload family (frontend/workloads.hh),
 * streams each through the windowed StreamCompiler on a grid device,
 * and reports the numbers the streaming design is accountable for:
 *
 *  - ingest rate (instructions/s and MB/s through the parser),
 *  - chunk throughput (chunks/s) and end-to-end latency,
 *  - peak RSS against the window-proportional bound that makes
 *    "O(window) memory" a testable claim instead of a slogan.
 *
 * BENCH_stream.json (bench_util.hh's shared layout) holds one row
 * per workload, with counts under their CompileStats names, plus a
 * "process" row with peak RSS and its bound. The binary exits 1
 * when a stream fails, any chunk fails verification, or peak RSS
 * breaks the bound. smoke.sh runs the quick preset plus a dedicated
 * ~1M-instruction RSS check.
 *
 * Env: TETRIS_BENCH_QUICK=1 shrinks instruction counts for CI;
 * TETRIS_STREAM_WINDOW overrides the window; TETRIS_VERIFY=1 runs
 * the semantic checker on every chunk; TETRIS_STREAM_INSTRUCTIONS
 * overrides the per-workload instruction floor (the smoke 1M run).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "common/env.hh"
#include "frontend/stream_compiler.hh"
#include "frontend/workloads.hh"

namespace fs = std::filesystem;

using namespace tetris;
using namespace tetris::bench;
using namespace tetris::frontend;

namespace
{

struct Row
{
    std::string name;
    std::string format;
    uint64_t generated = 0;
    StreamStats stats;
};

uint64_t
instructionFloor(bool quick)
{
    return envInt("TETRIS_STREAM_INSTRUCTIONS", 1, 2000000000,
                  quick ? 20000 : 200000);
}

/**
 * The memory contract: a fixed process baseline (binary, engine
 * threads, caches) plus a per-window-slot allowance. Deliberately
 * generous — the point is the *shape*: peak RSS must not scale with
 * input length, only with the window.
 */
uint64_t
rssBoundKb(int window)
{
    return 262144 + static_cast<uint64_t>(window) * 192;
}

} // namespace

int
main()
{
    const bool quick = quickMode();
    const int window = resolveStreamWindow();
    const uint64_t floor = instructionFloor(quick);
    printBanner("stream bench",
                "windowed streaming frontend: ingest rate, chunk "
                "throughput, peak RSS");

    Engine &engine = benchEngine();
    auto hw = shareDevice(gridTopology(5, 5));

    struct Spec
    {
        const char *name;
        const char *kind; // shor | grover | chem
        int qubits;
    };
    const std::vector<Spec> specs = {
        {"shor-modexp", "shor", 20},
        {"grover-3sat", "grover", 16},
        {"trotter-chem", "chem", 12},
    };

    fs::path dir =
        fs::temp_directory_path() /
        ("tetris_stream_bench_" + std::to_string(::getpid()));
    fs::create_directories(dir);

    std::vector<Row> rows;
    for (const Spec &spec : specs) {
        WorkloadSpec ws;
        ws.numQubits = spec.qubits;
        ws.minInstructions = floor;
        ws.seed = 42;

        const bool qasm = std::string(spec.kind) == "grover";
        fs::path input =
            dir / (std::string(spec.name) + (qasm ? ".qasm" : ".pauli"));
        Row row;
        row.name = spec.name;
        row.format = qasm ? "qasm" : "pauli";
        {
            std::ofstream out(input, std::ios::binary);
            if (std::string(spec.kind) == "shor")
                row.generated = genShorModExp(out, ws);
            else if (qasm)
                row.generated = genGrover3Sat(out, ws);
            else
                row.generated = genTrotterChem(out, ws);
        }

        StreamOptions opts;
        opts.window = window;
        opts.name = spec.name;
        opts.outputPath = (dir / (std::string(spec.name) + ".tcs")).string();

        std::ifstream in(input, std::ios::binary);
        auto src =
            makeBlockSource(in, SourceFormat::Auto, input.string());
        StreamCompiler sc(engine, hw, opts);
        row.stats = sc.run(*src);

        if (!row.stats.ok) {
            std::fprintf(stderr, "stream %s FAILED: %s %s\n",
                         spec.name, row.stats.failure.c_str(),
                         row.stats.parseError.ok()
                             ? ""
                             : row.stats.parseError.toText().c_str());
            return 1;
        }
        double instr_rate =
            row.stats.totalSeconds > 0
                ? static_cast<double>(row.stats.instructions) /
                      row.stats.totalSeconds
                : 0.0;
        std::printf("  %-13s %9llu instr  %6zu chunks  "
                    "%8.0f instr/s  %6.2fs total\n",
                    spec.name,
                    static_cast<unsigned long long>(
                        row.stats.instructions),
                    row.stats.chunks, instr_rate,
                    row.stats.totalSeconds);
        rows.push_back(std::move(row));
    }

    const uint64_t rss_kb = peakRssKb();
    const uint64_t bound_kb = rssBoundKb(window);
    std::printf("  peak RSS %llu KiB (bound %llu KiB, window %d)\n",
                static_cast<unsigned long long>(rss_kb),
                static_cast<unsigned long long>(bound_kb), window);

    auto config = [&](JsonWriter &w) {
        w.key("window").value(window);
        w.key("instruction_floor").value(floor);
    };
    auto json_rows = [&](JsonWriter &w) {
        for (const Row &row : rows) {
            const StreamStats &st = row.stats;
            auto per_sec = [&](double n) {
                return st.totalSeconds > 0 ? n / st.totalSeconds : 0.0;
            };
            w.beginObject();
            w.key("name").value(row.name);
            w.key("format").value(row.format);
            w.key("qubits").value(st.numQubits);
            w.key("generated_instructions").value(row.generated);
            w.key("instructions").value(st.instructions);
            w.key("bytes").value(st.bytesRead);
            w.key("chunks").value(static_cast<uint64_t>(st.chunks));
            w.key("blocks").value(static_cast<uint64_t>(st.blocks));
            w.key("verify_failures")
                .value(static_cast<uint64_t>(st.verifyFailures));
            w.key("totalGateCount")
                .value(static_cast<uint64_t>(st.totalGates));
            w.key("cnotCount").value(static_cast<uint64_t>(st.cnotCount));
            w.key("swapCount").value(static_cast<uint64_t>(st.swapCount));
            w.key("parse_seconds").value(st.parseSeconds);
            w.key("compile_seconds").value(st.compileSeconds);
            w.key("total_seconds").value(st.totalSeconds);
            w.key("instructions_per_sec")
                .value(per_sec(static_cast<double>(st.instructions)));
            w.key("bytes_per_sec")
                .value(per_sec(static_cast<double>(st.bytesRead)));
            w.key("chunks_per_sec")
                .value(per_sec(static_cast<double>(st.chunks)));
            w.endObject();
        }
        w.beginObject();
        w.key("name").value("process");
        w.key("peak_rss_kb").value(rss_kb);
        w.key("rss_bound_kb").value(bound_kb);
        w.endObject();
    };
    writeBenchFile("stream", config, json_rows, &engine);

    fs::remove_all(dir);

    int rc = 0;
    for (const Row &row : rows) {
        if (row.stats.verifyFailures != 0) {
            std::fprintf(stderr,
                         "stream %s: %zu chunk(s) failed verification\n",
                         row.name.c_str(), row.stats.verifyFailures);
            rc = 1;
        }
    }
    if (rss_kb > bound_kb) {
        std::fprintf(stderr,
                     "peak RSS %llu KiB exceeds the window bound "
                     "%llu KiB\n",
                     static_cast<unsigned long long>(rss_kb),
                     static_cast<unsigned long long>(bound_kb));
        rc = 1;
    }
    return rc;
}
