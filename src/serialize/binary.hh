/**
 * @file
 * Binary (de)serialization primitives for on-disk artifacts.
 *
 * A byte-oriented writer/reader pair with an explicit little-endian
 * wire format, independent of host endianness and struct layout.
 * Strings and byte blobs are length-prefixed. The reader never
 * throws: any overrun or malformed length flips a sticky fail flag
 * and subsequent reads return zero values, so callers validate one
 * ok() check at the end instead of guarding every field — corrupt
 * input degrades to "decode failed", never to UB or an abort.
 *
 * The reader decodes over a borrowed ByteSpan and never copies the
 * underlying buffer.
 */

#ifndef TETRIS_SERIALIZE_BINARY_HH
#define TETRIS_SERIALIZE_BINARY_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace tetris::serialize
{

/**
 * A borrowed, non-owning view of raw bytes. Decoders taking a
 * ByteSpan promise zero-copy access: the caller keeps the backing
 * storage alive for the duration of the call.
 */
using ByteSpan = std::string_view;

/** Append-only little-endian encoder over a growable byte string. */
class BinaryWriter
{
  public:
    void u8(uint8_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v);
    /** IEEE-754 bit pattern; NaN/inf round-trip exactly. */
    void f64(double v);
    /** u64 length prefix followed by the raw bytes. */
    void str(std::string_view v);
    void bytes(const void *data, size_t n);

    const std::string &data() const { return out_; }
    size_t size() const { return out_.size(); }

  private:
    std::string out_;
};

/** Non-throwing decoder over a borrowed byte range. */
class BinaryReader
{
  public:
    explicit BinaryReader(ByteSpan data) : data_(data) {}

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    int32_t i32();
    double f64();
    /** Fails (and returns "") if the length prefix overruns. */
    std::string str();

    /** True while every read so far stayed in bounds. */
    bool ok() const { return ok_; }
    /** Mark the stream bad explicitly (semantic validation). */
    void fail() { ok_ = false; }
    size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    /**
     * Borrow the next n bytes without copying; empty view + fail on
     * overrun. Used to checksum a payload in place.
     */
    ByteSpan view(size_t n);

  private:
    bool take(size_t n, const char *&p);

    ByteSpan data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace tetris::serialize

#endif // TETRIS_SERIALIZE_BINARY_HH
