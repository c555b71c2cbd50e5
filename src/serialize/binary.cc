#include "serialize/binary.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace tetris::serialize
{

namespace
{

/** Append v's little-endian bytes in one call. */
template <typename T>
void
appendLe(std::string &out, T v)
{
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out.append(buf, sizeof(T));
}

} // namespace

void
BinaryWriter::u32(uint32_t v)
{
    appendLe(out_, v);
}

void
BinaryWriter::u64(uint64_t v)
{
    appendLe(out_, v);
}

void
BinaryWriter::i32(int32_t v)
{
    u32(static_cast<uint32_t>(v));
}

void
BinaryWriter::f64(double v)
{
    u64(std::bit_cast<uint64_t>(v));
}

void
BinaryWriter::patchU64(size_t offset, uint64_t v)
{
    TETRIS_ASSERT(offset <= out_.size() && out_.size() - offset >= 8,
                  "patchU64 past the written bytes");
    for (size_t i = 0; i < 8; ++i)
        out_[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void
BinaryWriter::varintLong(uint64_t v)
{
    char buf[10];
    size_t n = 0;
    for (; v >= 0x80; v >>= 7)
        buf[n++] = static_cast<char>((v & 0x7f) | 0x80);
    buf[n++] = static_cast<char>(v);
    out_.append(buf, n);
}

void
BinaryWriter::str(std::string_view v)
{
    u64(v.size());
    out_.append(v.data(), v.size());
}

void
BinaryWriter::bytes(const void *data, size_t n)
{
    out_.append(static_cast<const char *>(data), n);
}

bool
BinaryReader::take(size_t n, const char *&p)
{
    if (!ok_ || n > data_.size() - pos_) {
        ok_ = false;
        return false;
    }
    p = data_.data() + pos_;
    pos_ += n;
    return true;
}

uint32_t
BinaryReader::u32()
{
    const char *p = nullptr;
    if (!take(4, p))
        return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    return v;
}

uint64_t
BinaryReader::u64()
{
    const char *p = nullptr;
    if (!take(8, p))
        return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    return v;
}

int32_t
BinaryReader::i32()
{
    return static_cast<int32_t>(u32());
}

double
BinaryReader::f64()
{
    return std::bit_cast<double>(u64());
}

uint64_t
BinaryReader::varintLong(uint64_t max_value)
{
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        const char *p = nullptr;
        if (!take(1, p))
            return 0;
        const auto byte = static_cast<uint8_t>(*p);
        const uint64_t bits = byte & 0x7f;
        // The tenth byte holds bit 63 alone; a final zero byte after
        // the first would make a second encoding of a shorter value.
        if ((shift == 63 && bits > 1) || (shift > 0 && byte == 0))
            break;
        v |= bits << shift;
        if ((byte & 0x80) == 0) {
            if (v > max_value)
                break;
            return v;
        }
    }
    ok_ = false;
    return 0;
}

std::string
BinaryReader::str()
{
    uint64_t n = u64();
    const char *p = nullptr;
    if (!take(static_cast<size_t>(n), p))
        return std::string();
    return std::string(p, static_cast<size_t>(n));
}

ByteSpan
BinaryReader::view(size_t n)
{
    const char *p = nullptr;
    if (!take(n, p))
        return ByteSpan();
    return ByteSpan(p, n);
}

} // namespace tetris::serialize
