/**
 * @file
 * Versioned on-disk compile-artifact format (.tca files).
 *
 * An artifact is one CompileResult frozen to bytes so a later process
 * can skip the compilation entirely (see engine/disk_cache.hh):
 *
 *   u32  magic      "TCA1"
 *   u32  version    kArtifactVersion
 *   u64  jobKey     Engine::jobKey of the compilation
 *   u64  payloadSize
 *   ...  payload    circuit + stats + layout + block order
 *   u64  checksum   FNV-1a over the payload bytes
 *
 * decode() is total: every failure mode — truncation, bit flips,
 * foreign files, version skew, key mismatch — returns false and
 * leaves no partial state, so cache readers can treat any bad file
 * as a miss. Component-level round-trips (Circuit, CompileStats)
 * are exposed for reuse and direct testing.
 */

#ifndef TETRIS_SERIALIZE_ARTIFACT_HH
#define TETRIS_SERIALIZE_ARTIFACT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "core/compiler.hh"
#include "serialize/binary.hh"

namespace tetris::serialize
{

/**
 * Bump on any wire-format change; readers reject other versions.
 * v2 added the seed placement (CompileResult::initialLayout) the
 * streaming frontend chains chunks with; v1 files decode as misses.
 */
inline constexpr uint32_t kArtifactVersion = 2;

/** Component encoders (appended to `w`). */
void write(BinaryWriter &w, const Circuit &c);
void write(BinaryWriter &w, const CompileStats &s);
void write(BinaryWriter &w, const Layout &l);

/**
 * Component decoders: false on malformed input (out-of-range qubits,
 * unknown gate kinds, non-bijective layouts, overruns). On failure
 * the output value is unspecified and the reader is marked failed.
 */
bool read(BinaryReader &r, Circuit &c);
bool read(BinaryReader &r, CompileStats &s);
bool read(BinaryReader &r, Layout &l);

/** Serialize one result into a complete artifact file image. */
std::string encodeArtifact(uint64_t job_key, const CompileResult &result);

/**
 * Parse a complete artifact file image. `expected_key` must match the
 * stored job key (a renamed/aliased file never serves the wrong
 * compilation). Returns false — never throws, never aborts — unless
 * every check (magic, version, key, length, checksum, payload
 * structure) passes. The bytes are only borrowed, never copied or
 * written to.
 */
bool decodeArtifact(ByteSpan bytes, uint64_t expected_key,
                    CompileResult &result);

} // namespace tetris::serialize

#endif // TETRIS_SERIALIZE_ARTIFACT_HH
