/**
 * @file
 * Streamed multi-artifact container (.tcs files).
 *
 * A .tcs file is the output of one streamed compilation: the
 * sequence of per-chunk compile artifacts, appended in chunk order
 * as each window finishes, so the file is valid (up to its last
 * complete record) at every moment of a long run:
 *
 *   u32  magic        "TCS1"
 *   u32  version      kStreamVersion
 *   ...  records, each:
 *          u64  jobKey        Engine::jobKey of the chunk compile
 *          u64  chunkIndex    0-based, must equal the record ordinal
 *          u64  artifactSize
 *          ...  artifact      a complete .tca image (artifact.hh),
 *                             self-checksummed by checksum64
 *
 * The writer appends and flushes record-at-a-time; the reader holds
 * one record in memory at a time, so both sides stay O(record) for
 * O(GB) files. Reading is total: a truncated tail, bit flip, or
 * foreign bytes surface as Status::Corrupt, never a crash. There is
 * deliberately no record count in the header — a crashed producer
 * leaves a readable prefix, and readers detect the end by EOF.
 */

#ifndef TETRIS_SERIALIZE_STREAM_FILE_HH
#define TETRIS_SERIALIZE_STREAM_FILE_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "core/compiler.hh"

namespace tetris::serialize
{

/**
 * Bump on any .tcs wire-format change, including a kArtifactVersion
 * bump of the images it holds; readers reject others. v2 held v3
 * (compact) images, and v3 holds v4 images (no timings), so a file
 * of older images fails at its header, not at record 0.
 */
inline constexpr uint32_t kStreamVersion = 3;

/** Append-only .tcs producer; one instance per output file. */
class StreamArtifactWriter
{
  public:
    /** Opens (truncates) `path` and writes the header. */
    explicit StreamArtifactWriter(const std::string &path);

    /** False after any I/O failure; sticky. */
    bool ok() const { return ok_; }

    /**
     * Append one chunk's artifact and flush it to the OS, so the
     * file's readable prefix always covers every completed chunk.
     * Returns ok().
     */
    bool append(uint64_t job_key, const CompileResult &result);

    /** Records appended so far. */
    size_t count() const { return count_; }

  private:
    std::ofstream out_;
    size_t count_ = 0;
    bool ok_ = false;
};

/** Sequential .tcs consumer; holds one record at a time. */
class StreamArtifactReader
{
  public:
    enum class Status
    {
        Record, ///< One record decoded into the out-params.
        End,    ///< Clean end of file after the last record.
        Corrupt ///< Malformed bytes; reading cannot continue.
    };

    /** Opens `path`; a bad header makes the first next() Corrupt. */
    explicit StreamArtifactReader(const std::string &path);

    /**
     * Decode the next record. Every structural check (record order,
     * artifact magic/version/key/checksum) must pass for
     * Status::Record; on Corrupt the out-params are unspecified.
     */
    Status next(uint64_t &job_key, CompileResult &result);

    /** Records successfully decoded so far. */
    size_t count() const { return count_; }

  private:
    std::ifstream in_;
    size_t count_ = 0;
    bool header_ok_ = false;
};

} // namespace tetris::serialize

#endif // TETRIS_SERIALIZE_STREAM_FILE_HH
