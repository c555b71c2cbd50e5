/**
 * @file
 * stream-mix: the three generator families of frontend/workloads.hh,
 * written to a temp dir during set-up, each streamed through
 * StreamCompiler on the 5x5 grid at window 256 with its .tcs output in
 * the same dir. Closed loop: one caller runs the three streams one
 * after another.
 *
 * Each chunk seeds the next chunk's layout, so chunks compile one
 * after another and the per-chunk cost sets the ingest rate. This is
 * the only workload where the frontend parses. The seed is the
 * generators' seed.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.hh"
#include "frontend/stream_compiler.hh"
#include "frontend/workloads.hh"
#include "hardware/topologies.hh"
#include "serialize/stream_file.hh"

namespace perfbench
{

using namespace tetris;
using namespace tetris::frontend;

namespace
{

constexpr int kWindow = 256;

struct Family
{
    const char *name;
    bool qasm;
    int qubits;
    uint64_t (*generate)(std::ostream &, const WorkloadSpec &);
};

const Family kFamilies[] = {
    {"shor-modexp", false, 20, genShorModExp},
    {"grover-3sat", true, 16, genGrover3Sat},
    {"trotter-chem", false, 12, genTrotterChem},
};

uint64_t
instructionFloor(const Args &args)
{
    return args.small() ? 4000 : 60000;
}

/** The generated inputs of one set-up, in a temp dir of their own. */
struct StreamInputs
{
    std::unique_ptr<TempDir> dir;
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
};

StreamInputs
buildInputs(const Args &args)
{
    StreamInputs in;
    in.dir = std::make_unique<TempDir>(args.workdir, "stream");
    size_t i = 0;
    for (const Family &f : kFamilies) {
        const std::string base = in.dir->path() + "/" + f.name;
        in.inputs.push_back(base + (f.qasm ? ".qasm" : ".pauli"));
        in.outputs.push_back(base + ".tcs");
        WorkloadSpec spec;
        spec.numQubits = f.qubits;
        spec.minInstructions = instructionFloor(args);
        spec.seed = mixSeed(args.seed, 2, i++);
        std::ofstream out(in.inputs.back(), std::ios::binary);
        f.generate(out, spec);
    }
    return in;
}

/**
 * Times every BlockSource::next call of the source it wraps and
 * records one span per call.
 */
class TimedSource : public BlockSource
{
  public:
    TimedSource(BlockSource &inner, SpanLog &spans, int64_t parent,
                int run)
        : inner_(inner), spans_(spans), parent_(parent), run_(run)
    {
    }

    Status next(PauliBlock &out) override
    {
        const uint64_t t0 = nowNs();
        const Status s = inner_.next(out);
        const uint64_t t1 = nowNs();
        spans_.add("BlockSource::next", parent_, run_, t0, t1);
        seconds_ += secondsBetween(t0, t1);
        return s;
    }
    const ParseError &error() const override { return inner_.error(); }
    int numQubits() const override { return inner_.numQubits(); }
    uint64_t instructionsRead() const override
    {
        return inner_.instructionsRead();
    }
    uint64_t bytesRead() const override { return inner_.bytesRead(); }
    bool residualClifford() const override
    {
        return inner_.residualClifford();
    }

    double seconds() const { return seconds_; }

  private:
    BlockSource &inner_;
    SpanLog &spans_;
    int64_t parent_;
    int run_;
    double seconds_ = 0.0;
};

struct StreamPass
{
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<double> runWalls;
    uint64_t instructions = 0;
    uint64_t bytes = 0;
    uint64_t chunks = 0;
    uint64_t blocks = 0;
    double parseSeconds = 0.0;
    Quality quality;
    EngineTotals engine;
};

/**
 * Read a .tcs back: a clean End after one record per chunk, in order,
 * carrying the keys the run returned. Folds each record into `q` and
 * `codec` (when given); returns false with a reason on any mismatch.
 */
bool
readBack(const std::string &path, const StreamStats &st, Quality &q,
         CodecMeter *codec, std::string &why)
{
    serialize::StreamArtifactReader reader(path);
    uint64_t key = 0;
    CompileResult result;
    size_t cnots = 0;
    size_t swaps = 0;
    while (true) {
        const auto status = reader.next(key, result);
        if (status == serialize::StreamArtifactReader::Status::End)
            break;
        if (status == serialize::StreamArtifactReader::Status::Corrupt) {
            why = "corrupt record " + std::to_string(reader.count());
            return false;
        }
        const size_t i = reader.count() - 1;
        if (i >= st.chunkKeys.size() || st.chunkKeys[i] != key) {
            why = "record " + std::to_string(i) + " has the wrong key";
            return false;
        }
        q.add(result.stats);
        cnots += result.stats.cnotCount;
        swaps += result.stats.swapCount;
        if (codec != nullptr)
            codec->add(result);
    }
    if (reader.count() != st.chunks) {
        why = std::to_string(reader.count()) + " records for " +
              std::to_string(st.chunks) + " chunks";
        return false;
    }
    if (cnots != st.cnotCount || swaps != st.swapCount) {
        why = "record counts disagree with the run's stats";
        return false;
    }
    return true;
}

/** Stream all three inputs on a fresh engine; returns failed chunks. */
uint64_t
runPass(const StreamInputs &in, Tracing &tracing, int run, Report &r,
        StreamPass &out, CodecMeter *codec)
{
    auto hw = std::make_shared<const CouplingGraph>(gridTopology(5, 5));
    Engine engine(engineOptions(&tracing.engine));
    std::vector<StreamStats> stats;

    const int64_t root =
        tracing.spans.open("round", SpanLog::kNoParent, run);
    const double cpu0 = processCpuSeconds();
    for (size_t i = 0; i < in.inputs.size(); ++i) {
        const Family &f = kFamilies[i];
        std::ifstream file(in.inputs[i], std::ios::binary);
        auto src = makeBlockSource(
            file, f.qasm ? SourceFormat::Qasm : SourceFormat::PauliList,
            in.inputs[i]);
        StreamOptions opts;
        opts.window = kWindow;
        opts.name = f.name;
        opts.outputPath = in.outputs[i];
        StreamCompiler compiler(engine, hw, opts);

        const int64_t call =
            tracing.spans.open("StreamCompiler::run", root, run, f.name);
        const uint64_t t0 = nowNs();
        StreamStats st;
        if (tracing.spans.enabled()) {
            TimedSource timed(*src, tracing.spans, call, run);
            st = compiler.run(timed);
            out.parseSeconds += timed.seconds();
        } else {
            st = compiler.run(*src);
        }
        const uint64_t t1 = nowNs();
        tracing.spans.close(call);
        out.runWalls.push_back(secondsBetween(t0, t1));
        out.wall += secondsBetween(t0, t1);
        stats.push_back(std::move(st));
    }
    out.cpu = processCpuSeconds() - cpu0;
    tracing.spans.close(root);
    out.engine = EngineTotals::read(engine);

    uint64_t failed = 0;
    for (size_t i = 0; i < stats.size(); ++i) {
        const StreamStats &st = stats[i];
        out.instructions += st.instructions;
        out.bytes += st.bytesRead;
        out.chunks += st.chunks;
        out.blocks += st.blocks;
        std::string why;
        if (!st.ok) {
            why = st.failure.empty() ? st.parseError.toText() : st.failure;
        } else if (st.verifyFailures != 0) {
            why = std::to_string(st.verifyFailures) + " chunks failed verify";
        } else if (!readBack(in.outputs[i], st, out.quality, codec, why)) {
            why = ".tcs read-back: " + why;
        }
        if (!why.empty()) {
            r.fail(std::string("stream ") + kFamilies[i].name + ": " + why);
            ++failed;
        }
    }
    if (out.engine.verifyPass != out.chunks) {
        r.fail("stream: " + std::to_string(out.engine.verifyPass) + " of " +
               std::to_string(out.chunks) + " chunk verdicts were Pass");
        failed += out.chunks - std::min(out.chunks, out.engine.verifyPass);
    }
    return failed;
}

} // namespace

void
runStream(const Args &args, Report &r, Tracing &tracing)
{
    reportEngineConfig(r);
    r.setConfig("stream.device", "5x5 grid");
    r.setConfig("stream.window", std::to_string(kWindow));
    r.setConfig("stream.min_instructions_per_family",
                std::to_string(instructionFloor(args)));
    r.setConfig("stream.loop", "closed, 1 caller, 3 streams in turn");

    std::vector<double> setups;
    StreamInputs in;
    while (moreSetups(setups)) {
        in = StreamInputs();
        const uint64_t t0 = nowNs();
        in = buildInputs(args);
        setups.push_back(secondsBetween(t0, nowNs()));
    }

    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> runWalls;
    StreamPass first;
    double rss_mb = 0.0;
    const uint64_t start = nowNs();
    do {
        StreamPass pass;
        r.failed += runPass(in, tracing, 0, r, pass, nullptr);
        r.attempted += pass.chunks;
        if (walls.empty()) {
            first = pass;
            rss_mb = peakRssMb();
        } else if (pass.quality != first.quality) {
            r.fail("stream: quality counts changed between passes");
        }
        walls.push_back(pass.wall);
        cpus.push_back(pass.cpu);
        runWalls.insert(runWalls.end(), pass.runWalls.begin(),
                        pass.runWalls.end());
        char line[112];
        std::snprintf(line, sizeof(line),
                      "pass %zu: wall %.4f s, cpu %.4f s, %llu chunks",
                      walls.size(), pass.wall, pass.cpu,
                      static_cast<unsigned long long>(pass.chunks));
        r.note(line);
    } while (secondsBetween(start, nowNs()) < args.seconds);

    const double wall = median(walls);
    r.e2e("setup_s", median(setups), "s");
    r.e2e("wall_s", wall, "s");
    r.e2e("rtt_p50_ms", median(runWalls) * 1e3, "ms");
    r.e2e("rps", static_cast<double>(first.chunks) / wall, "1/s");
    r.e2e("instr_per_s", static_cast<double>(first.instructions) / wall,
          "1/s");
    r.e2e("cpu_s", median(cpus), "s");
    r.e2e("peak_rss_mb", rss_mb, "MB");
    first.quality.report(r);

    if (!args.trace)
        return;
    tracing.enable();
    StreamPass pass;
    {
        // The traced pass reads its own freshly generated inputs.
        const int64_t setup =
            tracing.spans.open("setup", SpanLog::kNoParent, 1);
        in = StreamInputs();
        in = buildInputs(args);
        tracing.spans.close(setup);
        CodecMeter codec(tracing, 1);
        r.failed += runPass(in, tracing, 1, r, pass, &codec);
        codec.report(r);
    }
    r.attempted += pass.chunks;
    if (pass.quality != first.quality)
        r.fail("stream: traced pass changed the quality counts");
    reportEngineLayers(r, pass.engine, pass.wall);
    reportQualityLayers(r, pass.quality);
    r.layer("core.blocks", static_cast<double>(pass.blocks), "count");
    r.layer("frontend.parse_s", pass.parseSeconds, "s");
    r.layer("frontend.instructions", static_cast<double>(pass.instructions),
            "count");
    r.layer("frontend.bytes", static_cast<double>(pass.bytes), "bytes");
    r.layer("trace.overhead_pct", (pass.wall / wall - 1.0) * 100.0, "%");
}

} // namespace perfbench
