#include "serialize/artifact.hh"

#include <limits>

#include "common/hash.hh"

namespace tetris::serialize
{

namespace
{

/** "TCA1" read as a little-endian u32. */
constexpr uint32_t kMagic = 0x31414354u;

/**
 * Upper bound on element counts read from untrusted input. Each
 * element is >= 1 payload byte, so a count past the remaining bytes
 * is always bogus; this also caps allocation before that check.
 */
constexpr uint64_t kMaxCount = uint64_t{1} << 32;

bool
countOk(BinaryReader &r, uint64_t n)
{
    if (n > kMaxCount || n > r.remaining()) {
        r.fail();
        return false;
    }
    return true;
}

/** magic + version + jobKey + payloadSize. */
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;

} // namespace

void
write(BinaryWriter &w, const Circuit &c)
{
    w.i32(c.numQubits());
    w.u64(c.size());
    for (const Gate &g : c.gates()) {
        w.u8(static_cast<uint8_t>(g.kind));
        w.varint(static_cast<uint32_t>(g.q0));
        if (g.isTwoQubit())
            w.varint(static_cast<uint32_t>(g.q1));
        if (takesAngle(g.kind))
            w.f64(g.angle);
    }
}

bool
read(BinaryReader &r, Circuit &c)
{
    const int nq = r.i32();
    const uint64_t count = r.u64();
    // Every record takes at least 2 bytes (kind and q0), so a count
    // past remaining() / 2 cannot be real; rejecting it first bounds
    // the reserve below by the input's own size. With no qubits, no
    // gate can be real.
    if (!r.ok() || nq < 0 || count > r.remaining() / 2 ||
        (nq == 0 && count != 0)) {
        r.fail();
        return false;
    }
    const uint64_t max_qubit = static_cast<uint64_t>(nq) - 1;
    std::vector<Gate> gates;
    gates.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
        const uint8_t kind = r.u8();
        if (kind > static_cast<uint8_t>(GateKind::RESET)) {
            r.fail();
            return false;
        }
        Gate g{static_cast<GateKind>(kind), 0, -1, 0.0};
        g.q0 = static_cast<int>(r.varint(max_qubit));
        if (g.isTwoQubit()) {
            g.q1 = static_cast<int>(r.varint(max_qubit));
            if (g.q1 == g.q0)
                r.fail();
        }
        if (takesAngle(g.kind))
            g.angle = r.f64();
        if (!r.ok())
            return false;
        gates.push_back(g);
    }
    // Every gate passed Circuit::add's checks above, so corrupt bytes
    // surface as a decode failure, never an assertion.
    c = Circuit(nq, std::move(gates));
    return true;
}

void
write(BinaryWriter &w, const CompileStats &s)
{
    w.u64(s.cnotCount);
    w.u64(s.oneQubitCount);
    w.u64(s.totalGateCount);
    w.u64(s.depth);
    w.f64(s.durationDt);
    w.u64(s.swapCount);
    w.u64(s.swapCnots);
    w.u64(s.logicalCnots);
    w.u64(s.originalCnots);
    w.f64(s.cancelRatio);
    w.u64(s.synthesis.insertedSwaps);
    w.u64(s.synthesis.emittedCx);
    w.u64(s.synthesis.bridgeNodes);
    w.u64(s.synthesis.blocksWithCancellation);
    w.u64(s.synthesis.blocksFallback);
}

bool
read(BinaryReader &r, CompileStats &s)
{
    s = CompileStats{}; // the timings are not stored: 0.0 each
    s.cnotCount = r.u64();
    s.oneQubitCount = r.u64();
    s.totalGateCount = r.u64();
    s.depth = r.u64();
    s.durationDt = r.f64();
    s.swapCount = r.u64();
    s.swapCnots = r.u64();
    s.logicalCnots = r.u64();
    s.originalCnots = r.u64();
    s.cancelRatio = r.f64();
    s.synthesis.insertedSwaps = r.u64();
    s.synthesis.emittedCx = r.u64();
    s.synthesis.bridgeNodes = r.u64();
    s.synthesis.blocksWithCancellation = r.u64();
    s.synthesis.blocksFallback = r.u64();
    return r.ok();
}

void
write(BinaryWriter &w, const Layout &l)
{
    w.i32(l.numPhysical());
    w.u64(static_cast<uint64_t>(l.numLogical()));
    for (int logical = 0; logical < l.numLogical(); ++logical)
        w.i32(l.physOf(logical));
}

bool
read(BinaryReader &r, Layout &l)
{
    int num_physical = r.i32();
    uint64_t num_logical = r.u64();
    // fromMapping allocates num_physical slots up front, so bound it
    // before trusting it: a checksum-valid but crafted/foreign file
    // must not be able to trigger a multi-GB allocation (bad_alloc
    // would escape decodeArtifact's no-throw contract). 1<<24 is
    // orders of magnitude above any real device.
    if (!r.ok() || num_physical < 0 || num_physical > (1 << 24) ||
        !countOk(r, num_logical)) {
        return false;
    }
    std::vector<int> l2p(static_cast<size_t>(num_logical));
    for (auto &phys : l2p)
        phys = r.i32();
    if (!r.ok())
        return false;
    auto layout = Layout::fromMapping(l2p, num_physical);
    if (!layout) {
        r.fail();
        return false;
    }
    l = std::move(*layout);
    return true;
}

std::string
encodeArtifact(uint64_t job_key, const CompileResult &result)
{
    BinaryWriter w;
    // A rough size: gate records average about 3 bytes, and the
    // stats, layouts and block order are small beside them.
    w.reserve(kHeaderBytes + 4 * result.circuit.size() + 1024);
    w.u32(kMagic);
    w.u32(kArtifactVersion);
    w.u64(job_key);
    w.u64(0); // payloadSize, patched once the payload is written
    write(w, result.circuit);
    write(w, result.stats);
    write(w, result.initialLayout);
    write(w, result.finalLayout);
    w.u64(result.blockOrder.size());
    for (size_t idx : result.blockOrder)
        w.varint(idx);
    w.u8(result.cancelled ? 1 : 0);
    const size_t payload_size = w.size() - kHeaderBytes;
    w.patchU64(kHeaderBytes - 8, payload_size);
    w.u64(checksum64(w.data().data() + kHeaderBytes, payload_size));
    return std::move(w).take();
}

bool
decodeArtifact(ByteSpan bytes, uint64_t expected_key,
               CompileResult &result)
{
    BinaryReader file(bytes);
    uint32_t magic = file.u32();
    uint32_t version = file.u32();
    uint64_t key = file.u64();
    uint64_t payload_size = file.u64();
    if (!file.ok() || magic != kMagic || version != kArtifactVersion ||
        key != expected_key) {
        return false;
    }
    std::string_view payload = file.view(payload_size);
    uint64_t checksum = file.u64();
    if (!file.ok() || !file.atEnd() ||
        checksum != checksum64(payload.data(), payload.size())) {
        return false;
    }

    BinaryReader r(payload);
    CompileResult decoded;
    if (!read(r, decoded.circuit) || !read(r, decoded.stats) ||
        !read(r, decoded.initialLayout) ||
        !read(r, decoded.finalLayout)) {
        return false;
    }
    uint64_t order_count = r.u64();
    if (!r.ok() || !countOk(r, order_count))
        return false;
    decoded.blockOrder.resize(static_cast<size_t>(order_count));
    for (auto &idx : decoded.blockOrder)
        idx = static_cast<size_t>(
            r.varint(std::numeric_limits<size_t>::max()));
    decoded.cancelled = r.u8() != 0;
    if (!r.ok() || !r.atEnd())
        return false;
    result = std::move(decoded);
    return true;
}

} // namespace tetris::serialize
