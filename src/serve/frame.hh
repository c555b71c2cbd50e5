/**
 * @file
 * tetrisd wire protocol: length-prefixed frames over the .tca codec.
 *
 * Every message on a serve connection is one frame:
 *
 *   u32  magic       "TSP1"
 *   u32  version     kProtocolVersion (readers reject others)
 *   u32  type        FrameType
 *   u64  payloadLen  bytes of payload that follow
 *   ...  payload     type-specific, serialize/binary.hh encoding
 *   u64  checksum    checksum64 (common/hash.hh) over the payload
 *
 * The payloads reuse the serialize/ layer end to end: submit bodies
 * are BinaryWriter records, and a Result frame's artifact field *is*
 * a complete `.tca` file image (serialize/artifact.hh) — the same
 * bytes the disk cache stores, so a client can persist the response
 * directly and the server never invents a second result encoding.
 * The client checks both the frame trailer and the image's own
 * checksum.
 *
 * Decoding is total, exactly like the artifact codec: truncation,
 * bit flips, version skew, oversize length prefixes, and malformed
 * payloads all surface as a typed error, never a throw, abort, or
 * unbounded allocation. The length prefix is validated against the
 * receiver's frame budget *before* any payload byte is read, so a
 * hostile 2^63 prefix costs nothing.
 *
 * The codec half of this header (encode/decode of headers and
 * payload structs) is fuzzable without a socket; the fd-level
 * sendFrame/recvFrame helpers move frames through common/net.hh.
 */

#ifndef TETRIS_SERVE_FRAME_HH
#define TETRIS_SERVE_FRAME_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hh"
#include "serialize/binary.hh"

namespace tetris::serve
{

/** "TSP1" little-endian, deliberately distinct from .tca's "TCA1". */
inline constexpr uint32_t kFrameMagic = 0x31505354u;

/**
 * Bump on any frame-layout change; receivers reject other versions.
 * v2 added the Submit initialLayout field (streamed chunk chaining).
 * v3 moved the trailer from FNV-1a to checksum64 and carries v3
 * (compact) .tca images; v4 carries v4 images (no timings). Older
 * peers get version_skew, never a misparse.
 */
inline constexpr uint32_t kProtocolVersion = 4;

/** magic + version + type + payloadLen. */
inline constexpr size_t kFrameHeaderBytes = 4 + 4 + 4 + 8;

/** Trailing checksum64 over the payload. */
inline constexpr size_t kFrameTrailerBytes = 8;

/** Default per-frame payload budget (TETRIS_SERVE_MAX_FRAME_MB). */
inline constexpr uint64_t kDefaultMaxFrameBytes = 64ull << 20;

enum class FrameType : uint32_t {
    Submit = 1,    ///< client -> server: compile this program
    Result = 2,    ///< server -> client: key + verify + .tca artifact
    Error = 3,     ///< server -> client: code + human detail
    Ping = 4,      ///< client -> server: liveness probe
    Pong = 5,      ///< server -> client: liveness answer
    Stats = 6,     ///< client -> server: request a stats snapshot
    StatsText = 7, ///< server -> client: /metrics-format text
};

/** True for the frame types a conforming peer may emit. */
bool frameTypeKnown(uint32_t raw);

struct FrameHeader
{
    uint32_t magic = 0;
    uint32_t version = 0;
    uint32_t type = 0;
    uint64_t payloadLen = 0;
};

/** Append the 20-byte header for `payload_len` bytes of `type`. */
void encodeFrameHeader(serialize::BinaryWriter &w, FrameType type,
                       uint64_t payload_len);

/**
 * Parse a header from exactly kFrameHeaderBytes bytes. Returns false
 * only on short input; magic/version/type validation is the caller's
 * (each failure mode wants a different error frame).
 */
bool decodeFrameHeader(serialize::ByteSpan bytes, FrameHeader &out);

/** checksum64 over a payload, the frame trailer value. */
uint64_t frameChecksum(serialize::ByteSpan payload);

/** One complete frame image: header + payload + checksum. */
std::string encodeFrame(FrameType type, serialize::ByteSpan payload);

// ---- submit payload ------------------------------------------------

/**
 * A compile request as it travels the wire: everything Engine::jobKey
 * hashes, described in plain data so the server can validate it
 * before constructing the asserting in-memory types (PauliString,
 * CouplingGraph) from untrusted bytes.
 */
struct SubmitRequest
{
    /** Display name for metrics/event-log lines; may be empty. */
    std::string name;
    /** Registered pipeline id; empty selects the default pipeline. */
    std::string pipelineId;
    /** Device: qubit count, undirected edge list, display name. */
    int numQubits = 0;
    std::vector<std::pair<int, int>> edges;
    std::string hwName;
    struct Block
    {
        double theta = 0.0;
        /** (Pauli text over numQubits chars of IXYZ, weight). */
        std::vector<std::pair<std::string, double>> strings;
    };
    std::vector<Block> blocks;
    /**
     * Seed placement (protocol v2): logical qubit l starts on device
     * qubit initialLayout[l]. Empty = identity. When present it must
     * be a permutation of [0, numQubits) — the wire's one-width rule
     * makes the program exactly device wide — and the server compiles
     * with the seeded Tetris pipeline, which is how a streaming
     * client chains chunk N's final layout into chunk N+1.
     */
    std::vector<int> initialLayout;
};

std::string encodeSubmit(const SubmitRequest &req);

/**
 * Total decode of a submit payload: bounded counts, chars restricted
 * to IXYZ, edge endpoints in range and distinct, string widths equal
 * to numQubits. False + a diagnostic in `err` on anything else — the
 * output is then unspecified and must not be used.
 */
bool decodeSubmit(serialize::ByteSpan payload, SubmitRequest &out,
                  std::string &err);

/**
 * Validate a decoded request against this process (pipeline id
 * registered, device connected) and build the CompileJob. The
 * request's data has already passed decodeSubmit's structural
 * checks, so the asserting constructors are safe to run.
 */
bool submitToJob(const SubmitRequest &req, CompileJob &job,
                 std::string &err);

/**
 * The client-side inverse of submitToJob: flatten an in-memory
 * program + device into the wire request. Strings must be as wide as
 * the device (the protocol's one-width rule).
 */
SubmitRequest makeSubmitRequest(std::string name,
                                std::string pipeline_id,
                                const std::vector<PauliBlock> &blocks,
                                const CouplingGraph &hw,
                                std::vector<int> initial_layout = {});

// ---- result / error payloads ---------------------------------------

/** Verify verdict on the wire (u8): the cache entry's verdict. */
using WireVerify = VerifyVerdict;

struct ResultFrame
{
    uint64_t jobKey = 0;
    WireVerify verify = WireVerify::NotRun;
    /**
     * Server wall time, milliseconds: from a read Submit frame to
     * the encoded image in hand, so it includes any encode. What it
     * leaves out of the client's round trip is frames and sockets.
     */
    double serverMs = 0.0;
    /** Complete .tca image; decode with serialize::decodeArtifact. */
    std::string artifact;
};

std::string encodeResult(const ResultFrame &r);
bool decodeResult(serialize::ByteSpan payload, ResultFrame &out);

struct ErrorFrame
{
    /** Stable machine-readable code: bad_request, bad_frame,
     *  version_skew, frame_too_large, overloaded, draining,
     *  too_many_clients, compile_cancelled, internal. */
    std::string code;
    std::string detail;
};

std::string encodeError(const ErrorFrame &e);
bool decodeError(serialize::ByteSpan payload, ErrorFrame &out);

// ---- fd-level frame transport --------------------------------------

/** Why recvFrame did not produce a frame. */
enum class RecvStatus {
    Ok,
    Closed,       ///< clean EOF before any header byte
    Truncated,    ///< peer vanished mid-frame (or recv timeout)
    BadMagic,     ///< not a TSP1 stream
    VersionSkew,  ///< header version != kProtocolVersion
    BadType,      ///< unknown FrameType
    TooLarge,     ///< payloadLen over the receiver's budget
    BadChecksum,  ///< payload bytes corrupted in flight
};

const char *recvStatusName(RecvStatus s);

/** Write one complete frame; false if the peer went away. */
bool sendFrame(int fd, FrameType type, serialize::ByteSpan payload);

/**
 * Read one complete frame. The payload buffer is only allocated
 * after the length prefix passes the `max_payload` budget, so a
 * hostile prefix can never OOM the receiver. On any non-Ok status
 * the connection is unusable for further frames (framing is lost).
 */
RecvStatus recvFrame(int fd, uint64_t max_payload, FrameType &type,
                     std::string &payload);

} // namespace tetris::serve

#endif // TETRIS_SERVE_FRAME_HH
