/**
 * @file
 * Versioned on-disk compile-artifact format (.tca files).
 *
 * An artifact is one CompileResult frozen to bytes so a later process
 * can skip the compilation entirely (see engine/disk_cache.hh), and
 * the body of every tetrisd Result frame (serve/frame.hh):
 *
 *   u32  magic      "TCA1"
 *   u32  version    kArtifactVersion
 *   u64  jobKey     Engine::jobKey of the compilation
 *   u64  payloadSize
 *   ...  payload
 *   u64  checksum   checksum64 (common/hash.hh) over the payload
 *
 * The payload, in order (varints are LEB128, serialize/binary.hh):
 *
 *   circuit         i32 numQubits, u64 gate count, then per gate:
 *                     u8      kind (GateKind)
 *                     varint  q0
 *                     varint  q1      only for CX and SWAP
 *                     f64     angle   only for RZ and RX
 *   stats           15 CompileStats fields: u64 cnotCount,
 *                     oneQubitCount, totalGateCount, depth; f64
 *                     durationDt; u64 swapCount, swapCnots,
 *                     logicalCnots, originalCnots; f64 cancelRatio;
 *                     u64 synthesis.{insertedSwaps, emittedCx,
 *                     bridgeNodes, blocksWithCancellation,
 *                     blocksFallback}
 *   initialLayout,  each i32 numPhysical, u64 numLogical, then an
 *   finalLayout       i32 physical slot per logical qubit
 *   blockOrder      u64 count, then a varint per index
 *   cancelled       u8
 *
 * An image holds only what the compile decided, never its four
 * *Seconds timings (they decode as 0.0), so two compiles of one job
 * encode the same bytes. A gate record takes 2 bytes for a one-qubit
 * gate on a device of up to 128 qubits, 3 for a CX, 10 for a
 * rotation. A decoded one-qubit gate has q1 = -1, and a gate kind
 * without an angle has angle 0.0: the form in which the compilers
 * emit every gate.
 *
 * decode() is total: every failure mode — truncation, bit flips,
 * foreign files, version skew, key mismatch, overlong or
 * out-of-range varints, unknown gate kinds, a two-qubit gate on one
 * wire — returns false and leaves no partial state, so cache readers
 * can treat any bad file as a miss. Component-level round-trips
 * (Circuit, CompileStats, Layout) are exposed for reuse and direct
 * testing.
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
 * Bump on any wire-format change; readers reject other versions, so
 * an older image reads as a cache miss. v2 added the seed placement
 * (CompileResult::initialLayout) the streaming frontend chains
 * chunks with. v3 made gate records and block indices compact
 * (about 3 bytes per gate in place of 17) and replaced the FNV-1a
 * payload checksum with checksum64. v4 dropped the four timings
 * from the stats.
 */
inline constexpr uint32_t kArtifactVersion = 4;

/** Component encoders (appended to `w`). */
void write(BinaryWriter &w, const Circuit &c);
void write(BinaryWriter &w, const CompileStats &s);
void write(BinaryWriter &w, const Layout &l);

/**
 * Component decoders: false on malformed input (out-of-range or
 * overlong qubits, unknown gate kinds, non-bijective layouts,
 * overruns). On failure the output value is unspecified and the
 * reader is marked failed.
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
