/**
 * @file
 * Content hashing and integrity checksums.
 *
 * FNV-1a keys content. The compile cache keys jobs by a 64-bit
 * content hash of their inputs (Pauli blocks, coupling graph,
 * compiler options); these helpers provide the mixing primitives,
 * and each value type exposes a contentHash() built on top of them.
 * Collisions are possible in principle but negligible at cache scale
 * (< 2^20 entries). Job keys stay FNV-1a: changing them would move
 * every cache key.
 *
 * checksum64() guards bytes in transit and at rest: the payload of
 * every .tca image (which the golden corpus pins) and the trailer of
 * every TSP1 frame. It reads the input as little-endian 64-bit
 * words, one word per step, so a checksum is the same on every host
 * and costs a fraction of a byte-serial hash.
 */

#ifndef TETRIS_COMMON_HASH_HH
#define TETRIS_COMMON_HASH_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace tetris
{

/** FNV-1a 64-bit offset basis. */
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
/** FNV-1a 64-bit prime. */
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Mix a raw byte buffer into a running FNV-1a hash. */
inline uint64_t
fnvMixBytes(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Mix one trivially-copyable value into a running hash. */
template <typename T>
inline uint64_t
fnvMix(uint64_t h, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "fnvMix needs a trivially copyable value");
    return fnvMixBytes(h, &v, sizeof(T));
}

/** Mix a string (length-prefixed so "ab","c" != "a","bc"). */
inline uint64_t
fnvMixString(uint64_t h, const std::string &s)
{
    h = fnvMix(h, s.size());
    return fnvMixBytes(h, s.data(), s.size());
}

/** checksum64's initial state (the 64-bit golden ratio). */
inline constexpr uint64_t kChecksumSeed = 0x9e3779b97f4a7c15ull;
/** checksum64's odd multiplier (MurmurHash3's first fmix constant). */
inline constexpr uint64_t kChecksumPrime = 0xff51afd7ed558ccdull;

/** The little-endian 64-bit word at p, whatever the host's order. */
inline uint64_t
loadLe64(const unsigned char *p)
{
    uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&w, p, sizeof w);
    } else {
        for (int i = 7; i >= 0; --i)
            w = (w << 8) | p[i];
    }
    return w;
}

/**
 * One checksum64 step. For a fixed state it is a bijection of the
 * word, and for a fixed word a bijection of the state: xor, an odd
 * multiply and an xorshift are each invertible.
 */
inline uint64_t
checksumStep(uint64_t h, uint64_t w)
{
    h = (h ^ w) * kChecksumPrime;
    return h ^ (h >> 29);
}

/**
 * Integrity checksum of n bytes: one step per little-endian 8-byte
 * word, the last partial word zero-padded, then one step over the
 * length. Since every step is a bijection of the word and of the
 * state, two inputs of equal length that differ in one word (so any
 * single flipped bit) always checksum differently. Not a MAC: it
 * catches corruption, not a forger.
 */
inline uint64_t
checksum64(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = kChecksumSeed;
    size_t i = 0;
    for (; n - i >= 8; i += 8)
        h = checksumStep(h, loadLe64(p + i));
    if (i < n) {
        unsigned char tail[8] = {};
        std::memcpy(tail, p + i, n - i);
        h = checksumStep(h, loadLe64(tail));
    }
    return checksumStep(h, n);
}

} // namespace tetris

#endif // TETRIS_COMMON_HASH_HH
