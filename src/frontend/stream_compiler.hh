/**
 * @file
 * Windowed chunk compilation over a block stream.
 *
 * The StreamCompiler is the driver that turns an unbounded
 * BlockSource into a bounded-memory compilation: it gathers blocks
 * into chunks of at most `window` blocks (TETRIS_STREAM_WINDOW), and
 * pipelines the chunks through an Engine —
 *
 *     parse chunk 0 | submit 0 | parse 1 | wait 0 | submit 1 | ...
 *
 * so parsing chunk N+1 overlaps compiling chunk N on the engine's
 * worker pool. Chunk N+1's compilation is *seeded* with chunk N's
 * final layout (TetrisOptions::initialLayout), so the concatenation
 * of the per-chunk circuits is a circuit for the whole program: no
 * re-placement movement is needed at chunk boundaries, and the
 * differential test (tests/test_stream.cc) checks exactly that
 * composition against a whole-program compile.
 *
 * Every finished chunk is appended to a .tcs stream container
 * (serialize/stream_file.hh) the moment it completes, then dropped;
 * live state is one chunk being parsed plus one being compiled —
 * O(window), independent of input length.
 */

#ifndef TETRIS_FRONTEND_STREAM_COMPILER_HH
#define TETRIS_FRONTEND_STREAM_COMPILER_HH

#include <istream>
#include <memory>
#include <string>

#include "core/compiler.hh"
#include "engine/engine.hh"
#include "frontend/frontend.hh"
#include "hardware/coupling_graph.hh"

namespace tetris::frontend
{

/** Input format selector for makeBlockSource(). */
enum class SourceFormat
{
    Auto, ///< By path extension: ".qasm" -> Qasm, else PauliList.
    Qasm,
    PauliList,
};

/** Resolve Auto against a file path ("x.qasm" -> Qasm). */
SourceFormat formatForPath(const std::string &path);

/** Construct the parser for a format (Auto uses `path_hint`). */
std::unique_ptr<BlockSource> makeBlockSource(std::istream &in,
                                             SourceFormat format,
                                             const std::string &path_hint);

/**
 * Window size: `requested` if >= 1, else TETRIS_STREAM_WINDOW
 * (integer in [1, 1048576]), else 256.
 */
int resolveStreamWindow(int requested = 0);

/** Peak resident set size of this process in KiB (getrusage). */
uint64_t peakRssKb();

struct StreamOptions
{
    /** Blocks per chunk; <= 0 resolves TETRIS_STREAM_WINDOW. */
    int window = 0;
    /** Job-name prefix; chunk i submits as "<name>#<i>". */
    std::string name = "stream";
    /**
     * Base compiler options for every chunk. initialLayout is
     * overwritten per chunk with the previous chunk's final layout.
     */
    TetrisOptions compile;
    /** Destination .tcs path; empty = do not write artifacts. */
    std::string outputPath;
};

/** Everything a streamed run learned, for benches and tests. */
struct StreamStats
{
    /** False when parsing, compiling, or writing failed. */
    bool ok = false;
    /** The parse diagnostic when parsing is what failed. */
    ParseError parseError;
    /** Non-parse failure description ("chunk 3 cancelled", ...). */
    std::string failure;

    int numQubits = 0;
    size_t chunks = 0;
    size_t blocks = 0;
    uint64_t instructions = 0;
    uint64_t bytesRead = 0;
    bool residualClifford = false;

    /** Final layout of the last chunk (l2p), the program's output
     *  placement; empty when no chunk compiled. */
    std::vector<int> finalLayout;

    /** Job keys of every chunk, in order (cache/artifact lookup). */
    std::vector<uint64_t> chunkKeys;

    /** Aggregates over all chunk circuits. */
    size_t totalGates = 0;
    size_t cnotCount = 0;
    size_t swapCount = 0;

    /** Chunks whose engine verify pass failed (0 with verify off). */
    size_t verifyFailures = 0;

    /** Wall-clock of the whole run (parse + compile + write). */
    double totalSeconds = 0.0;
    /** Wall-clock spent inside BlockSource::next (the frontend). */
    double parseSeconds = 0.0;
    /** Sum of per-chunk compile time; a chunk served from the disk
     *  tier carries no compile time and adds 0.0. */
    double compileSeconds = 0.0;
};

class StreamCompiler
{
  public:
    StreamCompiler(Engine &engine,
                   std::shared_ptr<const CouplingGraph> hw,
                   StreamOptions opts);

    /**
     * Drain `src` through the engine. Returns stats with ok=false
     * and the typed error/failure set on the first problem; chunks
     * already compiled are still in the .tcs output and the stats.
     */
    StreamStats run(BlockSource &src);

    /** The window actually in force after env resolution. */
    int window() const { return window_; }

  private:
    Engine &engine_;
    std::shared_ptr<const CouplingGraph> hw_;
    StreamOptions opts_;
    int window_;
};

} // namespace tetris::frontend

#endif // TETRIS_FRONTEND_STREAM_COMPILER_HH
