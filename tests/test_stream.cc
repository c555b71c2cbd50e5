/**
 * @file
 * Differential correctness suite for the streaming frontend
 * (frontend/stream_compiler.hh): the same program compiled whole and
 * streamed at several window sizes must mean the same unitary.
 *
 * The load-bearing check is SEMANTIC, not syntactic: for each window
 * the per-chunk circuits are concatenated — legal because chunk N+1
 * is compiled from chunk N's final layout, so the wire states meet
 * exactly at the chunk boundary — and the combined circuit is run
 * through both equivalence checkers against the FULL block list.
 * Gate-for-gate comparison with the whole-program compile would be
 * wrong (the scheduler sees different horizons); unitary equality is
 * the actual contract.
 *
 * The corpus deliberately includes repeated same-axis rotations in
 * consecutive blocks (exercises cross-chunk peephole merges and the
 * conjugation checker's residual carry) and blocks whose strings do
 * NOT mutually commute (exercises the ordered-pool checker path).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "engine/engine.hh"
#include "frontend/pauli_parser.hh"
#include "frontend/qasm_parser.hh"
#include "frontend/stream_compiler.hh"
#include "frontend/workloads.hh"
#include "hardware/topologies.hh"
#include "serialize/stream_file.hh"
#include "verify/verify.hh"

namespace fs = std::filesystem;

namespace tetris
{
namespace
{

using namespace tetris::frontend;

/**
 * An 8-qubit Pauli-list program built to stress chunk boundaries:
 * dyadic single-Z cascades repeating the same control axis block
 * after block, commuting multi-string (UCC-flavored) blocks, an
 * all-qubit X mixing layer, and two blocks whose strings
 * anticommute (in-block rotation order is load-bearing there).
 */
std::string
corpusText()
{
    std::ostringstream out;
    auto single = [](int q, char op) {
        std::string s(8, 'I');
        s[static_cast<size_t>(q)] = op;
        return s;
    };
    // Sweep: repeated Z on a fixed control plus a moving target.
    for (int dist = 1; dist <= 6; ++dist) {
        out << "block " << (3.14159265358979 / (1 << (dist % 4)))
            << "\n";
        out << single(2, 'Z') << " -1.0\n";
        out << single((2 + dist) % 8, 'Z') << " -1.0\n";
        std::string zz(8, 'I');
        zz[2] = 'Z';
        zz[static_cast<size_t>((2 + dist) % 8)] = 'Z';
        out << zz << " 1.0\n";
    }
    // Commuting two-string blocks.
    out << "block 0.3\nXXIIIIII\nYYIIIIII\n";
    out << "block 0.45\nIIZZIIII\nIIIIZZII\n";
    // Non-commuting blocks: Z then X on the same wire.
    out << "block 0.7\n" << single(0, 'Z') << "\n" << single(0, 'X')
        << "\n";
    out << "block 0.25\n" << single(5, 'X') << "\n" << single(5, 'Y')
        << "\n";
    // Mixing layer.
    out << "block 0.9\n";
    for (int q = 0; q < 8; ++q)
        out << single(q, 'X') << "\n";
    // Tail sweep so the last chunk is not the mixing layer.
    for (int dist = 1; dist <= 4; ++dist) {
        out << "block " << (0.1 * dist) << "\n";
        out << single(6, 'Z') << "\n";
    }
    return out.str();
}

std::vector<PauliBlock>
parseAll(const std::string &text)
{
    std::istringstream in(text);
    PauliListParser parser(in);
    std::vector<PauliBlock> blocks;
    PauliBlock b;
    BlockSource::Status s;
    while ((s = parser.next(b)) == BlockSource::Status::Block)
        blocks.push_back(std::move(b));
    EXPECT_EQ(s, BlockSource::Status::End)
        << parser.error().toText();
    return blocks;
}

fs::path
tempPath(const std::string &name)
{
    return fs::temp_directory_path() /
           ("tetris_test_stream_" + std::to_string(::getpid()) + "_" +
            name);
}

class StreamDifferentialTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        EngineOptions opts;
        opts.numThreads = 2;
        opts.verify = true;
        engine_ = std::make_unique<Engine>(opts);
        hw_ = std::make_shared<const CouplingGraph>(gridTopology(2, 4));
    }

    std::unique_ptr<Engine> engine_;
    std::shared_ptr<const CouplingGraph> hw_;
};

TEST_F(StreamDifferentialTest, WindowsAgreeWithWholeProgram)
{
    const std::string text = corpusText();
    const std::vector<PauliBlock> whole = parseAll(text);
    ASSERT_GE(whole.size(), 15u);

    // 1 << 20 = "wider than the program": the whole program is one
    // chunk, which doubles as the unchunked baseline.
    for (int window : {1, 3, 7, 1 << 20}) {
        SCOPED_TRACE("window=" + std::to_string(window));
        const fs::path tcs =
            tempPath("w" + std::to_string(window) + ".tcs");

        std::istringstream in(text);
        PauliListParser src(in);
        StreamOptions opts;
        opts.window = window;
        opts.name = "diff";
        opts.outputPath = tcs.string();
        StreamCompiler sc(*engine_, hw_, opts);
        StreamStats st = sc.run(src);

        ASSERT_TRUE(st.ok) << st.failure << " " << st.parseError.toText();
        EXPECT_EQ(st.verifyFailures, 0u);
        EXPECT_EQ(st.blocks, whole.size());
        const size_t expect_chunks =
            (whole.size() + static_cast<size_t>(window) - 1) /
            static_cast<size_t>(window);
        EXPECT_EQ(st.chunks, expect_chunks);

        // Read the streamed artifacts back; chain and concatenate.
        serialize::StreamArtifactReader reader(tcs.string());
        CompileResult combined;
        combined.circuit = Circuit(hw_->numQubits());
        std::vector<int> prev_final;
        size_t block_offset = 0;
        size_t records = 0;
        uint64_t key = 0;
        CompileResult chunk;
        serialize::StreamArtifactReader::Status rs;
        while ((rs = reader.next(key, chunk)) ==
               serialize::StreamArtifactReader::Status::Record) {
            EXPECT_EQ(key, st.chunkKeys.at(records));
            // Layout chaining: chunk N+1 assumes exactly the wire
            // state chunk N left behind.
            if (records > 0)
                EXPECT_EQ(chunk.initialLayout.toPhysical(), prev_final);
            prev_final = chunk.finalLayout.toPhysical();
            combined.circuit.append(chunk.circuit);
            for (size_t idx : chunk.blockOrder)
                combined.blockOrder.push_back(block_offset + idx);
            block_offset += chunk.blockOrder.size();
            combined.finalLayout = chunk.finalLayout;
            ++records;
        }
        EXPECT_EQ(rs, serialize::StreamArtifactReader::Status::End);
        ASSERT_EQ(records, st.chunks);
        ASSERT_EQ(block_offset, whole.size());

        // The semantic differential: the concatenation of all chunk
        // circuits must implement the whole program, per both the
        // exact simulator and the scalable conjugation checker.
        VerifyReport conj = verifyConjugation(whole, combined);
        EXPECT_EQ(conj.status, VerifyStatus::Pass) << conj.detail;
        VerifyReport exact = verifyExact(whole, combined);
        EXPECT_EQ(exact.status, VerifyStatus::Pass) << exact.detail;

        fs::remove(tcs);
    }
}

TEST_F(StreamDifferentialTest, GeneratedWorkloadsStreamAndVerify)
{
    // The bench generators, small: every chunk must verify and the
    // layouts must chain for machine-generated programs too.
    struct Case
    {
        const char *kind;
        int qubits;
    };
    for (const Case &c : {Case{"shor", 8}, Case{"chem", 8}}) {
        SCOPED_TRACE(c.kind);
        WorkloadSpec ws;
        ws.numQubits = c.qubits;
        ws.minInstructions = 400;
        ws.seed = 7;
        std::ostringstream gen;
        if (std::string(c.kind) == "shor")
            genShorModExp(gen, ws);
        else
            genTrotterChem(gen, ws);

        std::istringstream in(gen.str());
        PauliListParser src(in);
        StreamOptions opts;
        opts.window = 5;
        opts.name = c.kind;
        StreamCompiler sc(*engine_, hw_, opts);
        StreamStats st = sc.run(src);
        ASSERT_TRUE(st.ok) << st.failure;
        EXPECT_EQ(st.verifyFailures, 0u);
        EXPECT_GE(st.instructions, 400u);
        EXPECT_GT(st.chunks, 1u);
    }
}

TEST_F(StreamDifferentialTest, QasmProgramStreams)
{
    WorkloadSpec ws;
    ws.numQubits = 8;
    ws.minInstructions = 300;
    ws.seed = 11;
    std::ostringstream gen;
    genGrover3Sat(gen, ws);

    std::istringstream in(gen.str());
    QasmParser src(in);
    StreamOptions opts;
    opts.window = 4;
    opts.name = "grover";
    StreamCompiler sc(*engine_, hw_, opts);
    StreamStats st = sc.run(src);
    ASSERT_TRUE(st.ok) << st.failure << " " << st.parseError.toText();
    EXPECT_EQ(st.verifyFailures, 0u);
    EXPECT_EQ(st.numQubits, 8);
    EXPECT_GT(st.chunks, 1u);
}

TEST_F(StreamDifferentialTest, EmptyProgramIsZeroChunks)
{
    std::istringstream in("# nothing but comments\n\n");
    PauliListParser src(in);
    StreamOptions opts;
    opts.window = 4;
    StreamCompiler sc(*engine_, hw_, opts);
    StreamStats st = sc.run(src);
    EXPECT_TRUE(st.ok) << st.failure;
    EXPECT_EQ(st.chunks, 0u);
    EXPECT_EQ(st.blocks, 0u);
}

TEST_F(StreamDifferentialTest, MidStreamParseErrorIsTypedAndPositioned)
{
    // Blocks 1-2 are fine; the garbage arrives in block 3, after the
    // first window already compiled — the error must still surface.
    std::istringstream in("block 0.5\nZIIIIIII\n"
                          "block 0.25\nXIIIIIII\n"
                          "block 0.125\nZQIIIIII\n");
    PauliListParser src(in);
    StreamOptions opts;
    opts.window = 1;
    StreamCompiler sc(*engine_, hw_, opts);
    StreamStats st = sc.run(src);
    EXPECT_FALSE(st.ok);
    EXPECT_EQ(st.parseError.kind, ParseErrorKind::Lex);
    EXPECT_EQ(st.parseError.line, 6u);
    EXPECT_EQ(st.parseError.column, 2u);
}

TEST_F(StreamDifferentialTest, ProgramWiderThanDeviceFails)
{
    std::string wide(16, 'Z');
    std::istringstream in("block 0.5\n" + wide + "\n");
    PauliListParser src(in);
    StreamOptions opts;
    opts.window = 4;
    StreamCompiler sc(*engine_, hw_, opts);
    StreamStats st = sc.run(src);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.failure.find("16 qubits"), std::string::npos)
        << st.failure;
}

TEST(StreamFileTest, TruncatedTailIsAReadablePrefix)
{
    // Compile two chunks to a .tcs, then truncate at every byte
    // length: the reader must return complete leading records and
    // then End/Corrupt — never crash, never a partial record.
    EngineOptions eopts;
    eopts.numThreads = 1;
    Engine engine(eopts);
    auto hw = std::make_shared<const CouplingGraph>(gridTopology(2, 2));

    std::istringstream in("block 0.5\nZIII\nblock 0.25\nXIII\n");
    PauliListParser src(in);
    const fs::path tcs = tempPath("trunc.tcs");
    StreamOptions opts;
    opts.window = 1;
    opts.outputPath = tcs.string();
    StreamCompiler sc(engine, hw, opts);
    StreamStats st = sc.run(src);
    ASSERT_TRUE(st.ok) << st.failure;
    ASSERT_EQ(st.chunks, 2u);

    std::ifstream full(tcs, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(full)),
                      std::istreambuf_iterator<char>());
    full.close();

    const fs::path cut = tempPath("cut.tcs");
    size_t prev_records = 0;
    for (size_t len = 0; len <= bytes.size(); ++len) {
        {
            std::ofstream out(cut, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(), static_cast<std::streamsize>(len));
        }
        serialize::StreamArtifactReader reader(cut.string());
        uint64_t key = 0;
        CompileResult res;
        size_t records = 0;
        serialize::StreamArtifactReader::Status rs;
        while ((rs = reader.next(key, res)) ==
               serialize::StreamArtifactReader::Status::Record)
            ++records;
        EXPECT_LE(records, 2u);
        // Longer prefixes never lose records.
        EXPECT_GE(records, prev_records == 2 ? 2u : 0u);
        if (len == bytes.size()) {
            EXPECT_EQ(records, 2u);
            EXPECT_EQ(rs,
                      serialize::StreamArtifactReader::Status::End);
        }
        prev_records = records;
    }
    fs::remove(tcs);
    fs::remove(cut);
}

TEST(StreamFileTest, TwoRunsWriteIdenticalFiles)
{
    // A .tcs record holds only what its chunk's compile decided, so
    // two runs of one program, each on a fresh engine, write the
    // same bytes at every window.
    WorkloadSpec ws;
    ws.numQubits = 12;
    ws.minInstructions = 600;
    ws.seed = 5;
    std::ostringstream gen;
    genShorModExp(gen, ws);
    auto hw = std::make_shared<const CouplingGraph>(gridTopology(3, 4));
    const fs::path tcs = tempPath("twice.tcs");
    for (int window : {1, 7, 256}) {
        SCOPED_TRACE(window);
        std::string files[2];
        for (std::string &bytes : files) {
            Engine engine;
            std::istringstream in(gen.str());
            PauliListParser src(in);
            StreamOptions opts;
            opts.window = window;
            opts.outputPath = tcs.string();
            StreamStats st = StreamCompiler(engine, hw, opts).run(src);
            ASSERT_TRUE(st.ok) << st.failure;
            std::ifstream file(tcs, std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(file),
                         std::istreambuf_iterator<char>());
        }
        EXPECT_GT(files[0].size(), 8u);
        EXPECT_TRUE(files[0] == files[1])
            << files[0].size() << " and " << files[1].size() << " bytes";
    }
    fs::remove(tcs);
}

TEST(StreamWindowTest, ResolutionOrder)
{
    // Explicit request beats everything; otherwise the env; else 256.
    EXPECT_EQ(resolveStreamWindow(17), 17);
    ::unsetenv("TETRIS_STREAM_WINDOW");
    EXPECT_EQ(resolveStreamWindow(0), 256);
    ::setenv("TETRIS_STREAM_WINDOW", "64", 1);
    EXPECT_EQ(resolveStreamWindow(0), 64);
    EXPECT_EQ(resolveStreamWindow(3), 3);
    ::unsetenv("TETRIS_STREAM_WINDOW");
}

} // namespace
} // namespace tetris
