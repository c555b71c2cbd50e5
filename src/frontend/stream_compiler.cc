#include "frontend/stream_compiler.hh"

#include <chrono>
#include <cstdlib>

#include <sys/resource.h>

#include "common/env.hh"
#include "core/pipeline_adapters.hh"
#include "frontend/pauli_parser.hh"
#include "frontend/qasm_parser.hh"
#include "serialize/stream_file.hh"

namespace tetris::frontend
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

SourceFormat
formatForPath(const std::string &path)
{
    const std::string suffix = ".qasm";
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        return SourceFormat::Qasm;
    return SourceFormat::PauliList;
}

std::unique_ptr<BlockSource>
makeBlockSource(std::istream &in, SourceFormat format,
                const std::string &path_hint)
{
    if (format == SourceFormat::Auto)
        format = formatForPath(path_hint);
    if (format == SourceFormat::Qasm)
        return std::make_unique<QasmParser>(in);
    return std::make_unique<PauliListParser>(in);
}

int
resolveStreamWindow(int requested)
{
    if (requested >= 1)
        return requested;
    return static_cast<int>(envInt("TETRIS_STREAM_WINDOW", 1, 1 << 20, 256));
}

uint64_t
peakRssKb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in KiB already.
    return static_cast<uint64_t>(ru.ru_maxrss);
}

StreamCompiler::StreamCompiler(Engine &engine,
                               std::shared_ptr<const CouplingGraph> hw,
                               StreamOptions opts)
    : engine_(engine), hw_(std::move(hw)), opts_(std::move(opts)),
      window_(resolveStreamWindow(opts_.window))
{
}

StreamStats
StreamCompiler::run(BlockSource &src)
{
    auto t0 = std::chrono::steady_clock::now();
    StreamStats st;

    std::unique_ptr<serialize::StreamArtifactWriter> writer;
    if (!opts_.outputPath.empty()) {
        writer = std::make_unique<serialize::StreamArtifactWriter>(
            opts_.outputPath);
        if (!writer->ok()) {
            st.failure = "cannot open output file: " + opts_.outputPath;
            st.totalSeconds = secondsSince(t0);
            return st;
        }
    }

    // Pull up to `window_` blocks; false on parse error.
    auto parseChunk = [&](std::vector<PauliBlock> &chunk) {
        chunk.clear();
        auto p0 = std::chrono::steady_clock::now();
        PauliBlock b;
        bool ok = true;
        while (static_cast<int>(chunk.size()) < window_) {
            BlockSource::Status s = src.next(b);
            if (s == BlockSource::Status::Block) {
                chunk.push_back(std::move(b));
            } else {
                ok = s == BlockSource::Status::End;
                break;
            }
        }
        st.parseSeconds += secondsSince(p0);
        return ok;
    };

    struct Pending
    {
        std::shared_ptr<CompileCache::Entry> entry;
        size_t blocks = 0;
        size_t index = 0;
    };

    auto submit = [&](std::vector<PauliBlock> chunk,
                      std::vector<int> seed, size_t index) {
        Pending p;
        p.blocks = chunk.size();
        p.index = index;
        TetrisOptions chunk_opts = opts_.compile;
        chunk_opts.initialLayout = std::move(seed);
        CompileJob job;
        job.name = opts_.name + "#" + std::to_string(index);
        job.blocks = std::move(chunk);
        job.hw = hw_;
        job.pipeline = makeTetrisPipeline(chunk_opts);
        // Chunk keys are unique (name#index + seeded layout) and each
        // result is read exactly once, then lives on in the .tcs
        // stream: caching them would make resident memory O(chunks),
        // sinking the O(window) claim this layer exists for.
        job.transient = true;
        p.entry = engine_.submit(std::move(job));
        return p;
    };

    // Wait for one chunk, fold its result into the stats/output.
    // Returns false (with st.failure set) when streaming must stop.
    auto settle = [&](const Pending &p, std::vector<int> &seed_out) {
        std::shared_ptr<const CompileResult> res = p.entry->get();
        if (res->cancelled) {
            st.failure = "chunk " + std::to_string(p.index) +
                         " was cancelled by the engine";
            return false;
        }
        if (p.entry->verdict() == VerifyVerdict::Fail)
            ++st.verifyFailures;
        ++st.chunks;
        st.blocks += p.blocks;
        st.chunkKeys.push_back(p.entry->key());
        st.totalGates += res->stats.totalGateCount;
        st.cnotCount += res->stats.cnotCount;
        st.swapCount += res->stats.swapCount;
        st.compileSeconds += res->stats.compileSeconds;
        st.finalLayout = res->finalLayout.toPhysical();
        seed_out = st.finalLayout;
        if (writer != nullptr && !writer->append(p.entry->key(), *res)) {
            st.failure = "write failure on " + opts_.outputPath +
                         " at chunk " + std::to_string(p.index);
            return false;
        }
        return true;
    };

    auto finish = [&](bool ok) {
        st.numQubits = src.numQubits();
        st.instructions = src.instructionsRead();
        st.bytesRead = src.bytesRead();
        // A trailing Clifford the block stream could not carry is
        // flagged, not fatal: the chunks themselves are verified, and
        // drivers/tests decide whether a dangling basis change at EOF
        // matters for their use (it usually is a final measurement
        // basis rotation).
        st.residualClifford = src.residualClifford();
        st.ok = ok && st.failure.empty();
        st.totalSeconds = secondsSince(t0);
        return st;
    };

    std::vector<PauliBlock> chunk;
    if (!parseChunk(chunk)) {
        st.parseError = src.error();
        return finish(false);
    }
    if (chunk.empty())
        return finish(true); // empty program: zero chunks, success

    if (static_cast<int>(chunk.front().numQubits()) > hw_->numQubits()) {
        st.failure = "program needs " +
                     std::to_string(chunk.front().numQubits()) +
                     " qubits but the device has " +
                     std::to_string(hw_->numQubits());
        return finish(false);
    }

    std::vector<int> seed; // empty = identity for chunk 0
    Pending pending = submit(std::move(chunk), seed, 0);
    size_t index = 0;
    while (true) {
        // Parse the next chunk while the engine compiles this one.
        bool parsed = parseChunk(chunk);
        if (!settle(pending, seed))
            return finish(false);
        if (!parsed) {
            st.parseError = src.error();
            return finish(false);
        }
        if (chunk.empty())
            break;
        pending = submit(std::move(chunk), seed, ++index);
    }
    return finish(true);
}

} // namespace tetris::frontend
