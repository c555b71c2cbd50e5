#include "serve/frame.hh"

#include <cmath>
#include <sstream>

#include "common/hash.hh"
#include "core/pipeline.hh"
#include "core/pipeline_adapters.hh"
#include "hardware/coupling_graph.hh"
#include "pauli/pauli_string.hh"

namespace tetris::serve
{

namespace
{

using serialize::BinaryReader;
using serialize::BinaryWriter;
using serialize::ByteSpan;

// Structural caps on a submit payload. Far above any real workload
// (the paper's largest device is 65 qubits, its largest program ~2k
// blocks) yet small enough that a hostile count can never drive an
// allocation the length prefix didn't already pay for.
constexpr uint64_t kMaxWireQubits = 4096;
constexpr uint64_t kMaxWireEdges = uint64_t{1} << 20;
constexpr uint64_t kMaxWireBlocks = uint64_t{1} << 20;
constexpr uint64_t kMaxWireStrings = uint64_t{1} << 20;

/** Bounded-count gate, same idea as the artifact codec's countOk:
 *  every element of a count costs >= 1 payload byte, so a count
 *  beyond remaining() is structurally impossible. */
bool
wireCountOk(BinaryReader &r, uint64_t n, uint64_t cap)
{
    if (n > cap || n > r.remaining()) {
        r.fail();
        return false;
    }
    return true;
}

bool
failDecode(std::string &err, const char *what)
{
    err = what;
    return false;
}

} // namespace

bool
frameTypeKnown(uint32_t raw)
{
    return raw >= static_cast<uint32_t>(FrameType::Submit) &&
           raw <= static_cast<uint32_t>(FrameType::StatsText);
}

void
encodeFrameHeader(BinaryWriter &w, FrameType type, uint64_t payload_len)
{
    w.u32(kFrameMagic);
    w.u32(kProtocolVersion);
    w.u32(static_cast<uint32_t>(type));
    w.u64(payload_len);
}

bool
decodeFrameHeader(ByteSpan bytes, FrameHeader &out)
{
    if (bytes.size() < kFrameHeaderBytes)
        return false;
    BinaryReader r(bytes);
    out.magic = r.u32();
    out.version = r.u32();
    out.type = r.u32();
    out.payloadLen = r.u64();
    return r.ok();
}

uint64_t
frameChecksum(ByteSpan payload)
{
    return checksum64(payload.data(), payload.size());
}

std::string
encodeFrame(FrameType type, ByteSpan payload)
{
    BinaryWriter w;
    w.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
    encodeFrameHeader(w, type, payload.size());
    w.bytes(payload.data(), payload.size());
    w.u64(frameChecksum(payload));
    return std::move(w).take();
}

// ---- submit payload ------------------------------------------------

std::string
encodeSubmit(const SubmitRequest &req)
{
    BinaryWriter w;
    w.str(req.name);
    w.str(req.pipelineId);
    w.i32(req.numQubits);
    w.str(req.hwName);
    w.u64(req.edges.size());
    for (const auto &[a, b] : req.edges) {
        w.i32(a);
        w.i32(b);
    }
    w.u64(req.blocks.size());
    for (const auto &b : req.blocks) {
        w.f64(b.theta);
        w.u64(b.strings.size());
        for (const auto &[text, weight] : b.strings) {
            w.str(text);
            w.f64(weight);
        }
    }
    w.u64(req.initialLayout.size());
    for (int p : req.initialLayout)
        w.i32(p);
    return w.data();
}

bool
decodeSubmit(ByteSpan payload, SubmitRequest &out, std::string &err)
{
    out = SubmitRequest();
    BinaryReader r(payload);
    out.name = r.str();
    out.pipelineId = r.str();
    out.numQubits = r.i32();
    out.hwName = r.str();
    if (!r.ok())
        return failDecode(err, "truncated submit header");
    if (out.numQubits < 1 ||
        static_cast<uint64_t>(out.numQubits) > kMaxWireQubits)
        return failDecode(err, "numQubits out of range");

    const uint64_t num_edges = r.u64();
    if (!r.ok() || !wireCountOk(r, num_edges, kMaxWireEdges))
        return failDecode(err, "edge count out of range");
    out.edges.reserve(num_edges);
    for (uint64_t i = 0; i < num_edges; ++i) {
        int a = r.i32();
        int b = r.i32();
        if (!r.ok())
            return failDecode(err, "truncated edge list");
        if (a < 0 || b < 0 || a >= out.numQubits ||
            b >= out.numQubits || a == b)
            return failDecode(err, "edge endpoint out of range");
        out.edges.emplace_back(a, b);
    }

    const uint64_t num_blocks = r.u64();
    if (!r.ok() || num_blocks == 0 ||
        !wireCountOk(r, num_blocks, kMaxWireBlocks))
        return failDecode(err, "block count out of range");
    out.blocks.reserve(num_blocks);
    for (uint64_t i = 0; i < num_blocks; ++i) {
        SubmitRequest::Block block;
        block.theta = r.f64();
        if (!r.ok() || !std::isfinite(block.theta))
            return failDecode(err, "block theta not finite");
        const uint64_t num_strings = r.u64();
        if (!r.ok() || num_strings == 0 ||
            !wireCountOk(r, num_strings, kMaxWireStrings))
            return failDecode(err, "string count out of range");
        block.strings.reserve(num_strings);
        for (uint64_t s = 0; s < num_strings; ++s) {
            std::string text = r.str();
            double weight = r.f64();
            if (!r.ok())
                return failDecode(err, "truncated Pauli string");
            if (text.size() != static_cast<size_t>(out.numQubits))
                return failDecode(err,
                                  "Pauli string width != numQubits");
            for (char c : text) {
                if (c != 'I' && c != 'X' && c != 'Y' && c != 'Z')
                    return failDecode(
                        err, "Pauli string has a char outside IXYZ");
            }
            if (!std::isfinite(weight))
                return failDecode(err, "string weight not finite");
            block.strings.emplace_back(std::move(text), weight);
        }
        out.blocks.push_back(std::move(block));
    }

    const uint64_t layout_len = r.u64();
    if (!r.ok() ||
        (layout_len != 0 &&
         layout_len != static_cast<uint64_t>(out.numQubits)))
        return failDecode(err, "initialLayout length must be 0 or "
                               "numQubits");
    std::vector<bool> seen(static_cast<size_t>(out.numQubits), false);
    out.initialLayout.reserve(layout_len);
    for (uint64_t i = 0; i < layout_len; ++i) {
        int p = r.i32();
        if (!r.ok())
            return failDecode(err, "truncated initialLayout");
        if (p < 0 || p >= out.numQubits)
            return failDecode(err, "initialLayout entry out of range");
        if (seen[static_cast<size_t>(p)])
            return failDecode(err, "initialLayout repeats a qubit");
        seen[static_cast<size_t>(p)] = true;
        out.initialLayout.push_back(p);
    }
    if (!r.atEnd())
        return failDecode(err, "trailing bytes after submit body");
    return true;
}

bool
submitToJob(const SubmitRequest &req, CompileJob &job, std::string &err)
{
    if (!req.initialLayout.empty()) {
        // A seed placement is a TetrisOptions knob, so it can only
        // ride on the tetris pipeline; the registry's other stacks
        // have no notion of a starting layout.
        if (!req.pipelineId.empty() && req.pipelineId != "tetris") {
            err = "initialLayout requires the tetris pipeline, got: " +
                  req.pipelineId;
            return false;
        }
        TetrisOptions opts;
        opts.initialLayout = req.initialLayout;
        job.pipeline = makeTetrisPipeline(std::move(opts));
    } else if (req.pipelineId.empty()) {
        job.pipeline = defaultPipeline();
    } else if (PipelineRegistry::instance().contains(req.pipelineId)) {
        job.pipeline = PipelineRegistry::instance().create(req.pipelineId);
    } else {
        err = "unknown pipeline id: " + req.pipelineId;
        return false;
    }

    // decodeSubmit bounded every index, so the asserting constructors
    // below only ever see structurally valid data.
    auto hw = std::make_shared<CouplingGraph>(
        req.numQubits, req.edges,
        req.hwName.empty() ? "client" : req.hwName);
    if (!hw->isConnected()) {
        err = "device coupling graph is not connected";
        return false;
    }
    job.hw = std::move(hw);

    job.blocks.clear();
    job.blocks.reserve(req.blocks.size());
    for (const auto &b : req.blocks) {
        std::vector<PauliString> strings;
        std::vector<double> weights;
        strings.reserve(b.strings.size());
        weights.reserve(b.strings.size());
        for (const auto &[text, weight] : b.strings) {
            strings.push_back(PauliString::fromText(text));
            weights.push_back(weight);
        }
        job.blocks.emplace_back(std::move(strings), std::move(weights),
                                b.theta);
    }
    job.name = req.name.empty() ? "serve-job" : req.name;
    return true;
}

SubmitRequest
makeSubmitRequest(std::string name, std::string pipeline_id,
                  const std::vector<PauliBlock> &blocks,
                  const CouplingGraph &hw,
                  std::vector<int> initial_layout)
{
    SubmitRequest req;
    req.name = std::move(name);
    req.pipelineId = std::move(pipeline_id);
    req.initialLayout = std::move(initial_layout);
    req.numQubits = hw.numQubits();
    req.edges = hw.edges();
    req.hwName = hw.name();
    req.blocks.reserve(blocks.size());
    for (const PauliBlock &b : blocks) {
        SubmitRequest::Block wb;
        wb.theta = b.theta();
        wb.strings.reserve(b.size());
        for (size_t i = 0; i < b.size(); ++i)
            wb.strings.emplace_back(b.string(i).toText(),
                                    b.weight(i));
        req.blocks.push_back(std::move(wb));
    }
    return req;
}

// ---- result / error payloads ---------------------------------------

std::string
encodeResult(const ResultFrame &r)
{
    BinaryWriter w;
    w.reserve(8 + 1 + 8 + 8 + r.artifact.size());
    w.u64(r.jobKey);
    w.u8(static_cast<uint8_t>(r.verify));
    w.f64(r.serverMs);
    w.str(r.artifact);
    return std::move(w).take();
}

bool
decodeResult(ByteSpan payload, ResultFrame &out)
{
    out = ResultFrame();
    BinaryReader r(payload);
    out.jobKey = r.u64();
    const uint8_t verify = r.u8();
    out.serverMs = r.f64();
    out.artifact = r.str();
    if (!r.ok() || !r.atEnd() ||
        verify > static_cast<uint8_t>(WireVerify::Skipped))
        return false;
    out.verify = static_cast<WireVerify>(verify);
    return true;
}

std::string
encodeError(const ErrorFrame &e)
{
    BinaryWriter w;
    w.str(e.code);
    w.str(e.detail);
    return w.data();
}

bool
decodeError(ByteSpan payload, ErrorFrame &out)
{
    out = ErrorFrame();
    BinaryReader r(payload);
    out.code = r.str();
    out.detail = r.str();
    return r.ok() && r.atEnd();
}

#if TETRIS_HAVE_SOCKETS

// ---- fd-level frame transport --------------------------------------

const char *
recvStatusName(RecvStatus s)
{
    switch (s) {
      case RecvStatus::Ok:          return "ok";
      case RecvStatus::Closed:      return "closed";
      case RecvStatus::Truncated:   return "truncated";
      case RecvStatus::BadMagic:    return "bad_magic";
      case RecvStatus::VersionSkew: return "version_skew";
      case RecvStatus::BadType:     return "bad_type";
      case RecvStatus::TooLarge:    return "frame_too_large";
      case RecvStatus::BadChecksum: return "bad_checksum";
    }
    return "unknown";
}

bool
sendFrame(int fd, FrameType type, ByteSpan payload)
{
    const std::string frame = encodeFrame(type, payload);
    return net::sendAll(fd, frame.data(), frame.size());
}

RecvStatus
recvFrame(int fd, uint64_t max_payload, FrameType &type,
          std::string &payload)
{
    // First byte separately: a clean EOF *between* frames is the
    // normal end of a conversation (Closed), not a protocol error.
    char head[kFrameHeaderBytes];
    ssize_t first = net::recvRetry(fd, head, 1, 0);
    if (first == 0)
        return RecvStatus::Closed;
    if (first < 0)
        return RecvStatus::Truncated;
    if (!net::recvAll(fd, head + 1, sizeof(head) - 1))
        return RecvStatus::Truncated;

    FrameHeader h;
    decodeFrameHeader(ByteSpan(head, sizeof(head)), h);
    if (h.magic != kFrameMagic)
        return RecvStatus::BadMagic;
    if (h.version != kProtocolVersion)
        return RecvStatus::VersionSkew;
    if (!frameTypeKnown(h.type))
        return RecvStatus::BadType;
    // Budget check before the allocation: an oversize (or hostile
    // 2^63) length prefix is rejected for free.
    if (h.payloadLen > max_payload)
        return RecvStatus::TooLarge;

    payload.resize(h.payloadLen);
    if (h.payloadLen != 0 &&
        !net::recvAll(fd, payload.data(), payload.size()))
        return RecvStatus::Truncated;

    char trailer[kFrameTrailerBytes];
    if (!net::recvAll(fd, trailer, sizeof(trailer)))
        return RecvStatus::Truncated;
    BinaryReader tr(ByteSpan(trailer, sizeof(trailer)));
    if (tr.u64() != frameChecksum(payload))
        return RecvStatus::BadChecksum;

    type = static_cast<FrameType>(h.type);
    return RecvStatus::Ok;
}

#endif // TETRIS_HAVE_SOCKETS

} // namespace tetris::serve
