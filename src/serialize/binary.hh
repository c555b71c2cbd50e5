/**
 * @file
 * Binary (de)serialization primitives for on-disk artifacts.
 *
 * A byte-oriented writer/reader pair with an explicit little-endian
 * wire format, independent of host endianness and struct layout.
 * Strings and byte blobs are length-prefixed. Small unsigned values
 * may travel as LEB128 varints: 7 bits per byte, low group first,
 * the high bit set on every byte but the last. The reader never
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

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace tetris::serialize
{

/**
 * A borrowed, non-owning view of raw bytes. Decoders taking a
 * ByteSpan promise zero-copy access: the caller keeps the backing
 * storage alive for the duration of the call.
 */
using ByteSpan = std::string_view;

/**
 * Append-only little-endian encoder over a growable byte string.
 * Each field is one append; reserve() the known output size first
 * and the string never reallocates.
 */
class BinaryWriter
{
  public:
    void reserve(size_t n) { out_.reserve(n); }

    void u8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v);
    /** IEEE-754 bit pattern; NaN/inf round-trip exactly. */
    void f64(double v);
    /** Minimal LEB128 encoding: 1 byte below 128, at most 10. */
    void
    varint(uint64_t v)
    {
        // One byte covers every qubit of a device up to 128 wide.
        if (v < 0x80)
            out_.push_back(static_cast<char>(v));
        else
            varintLong(v);
    }
    /** u64 length prefix followed by the raw bytes. */
    void str(std::string_view v);
    void bytes(const void *data, size_t n);
    /**
     * Overwrite the 8 bytes at `offset`, written earlier, with v:
     * a length prefix whose value is known only after its body.
     */
    void patchU64(size_t offset, uint64_t v);

    const std::string &data() const { return out_; }
    size_t size() const { return out_.size(); }
    /** Hand the bytes over without copying; the writer is spent. */
    std::string take() && { return std::move(out_); }

  private:
    void varintLong(uint64_t v);

    std::string out_;
};

/** Non-throwing decoder over a borrowed byte range. */
class BinaryReader
{
  public:
    explicit BinaryReader(ByteSpan data) : data_(data) {}

    uint8_t
    u8()
    {
        if (!ok_ || pos_ == data_.size()) {
            ok_ = false;
            return 0;
        }
        return static_cast<uint8_t>(data_[pos_++]);
    }
    uint32_t u32();
    uint64_t u64();
    int32_t i32();
    double f64();
    /**
     * A varint in [0, max_value]. Fails (and returns 0) on an
     * overrun, an overlong form (a zero final byte after the first),
     * more than 64 bits, or a value past max_value.
     */
    uint64_t
    varint(uint64_t max_value)
    {
        if (ok_ && pos_ < data_.size()) {
            const auto byte = static_cast<uint8_t>(data_[pos_]);
            if (byte < 0x80 && byte <= max_value) {
                ++pos_;
                return byte;
            }
        }
        return varintLong(max_value);
    }
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
    uint64_t varintLong(uint64_t max_value);

    ByteSpan data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace tetris::serialize

#endif // TETRIS_SERIALIZE_BINARY_HH
