/**
 * @file
 * Serialization-layer tests: binary primitive and varint round-trips
 * and overrun behavior, the checksum64 known answer and its
 * single-bit-flip guarantee, circuit/stats/layout component
 * round-trips (empty, parameterized, 1000-gate stress), the compact
 * gate records' rejection cases (overlong and out-of-range varints,
 * unknown kinds, a two-qubit gate on one wire, truncated records),
 * full compile-artifact round-trips against a real compilation, and
 * the decode-rejection matrix — every truncation, every byte flipped,
 * version skew, wrong key, foreign bytes — that the disk cache relies
 * on to treat corruption as a plain miss. A .tcs file of the previous
 * stream version is rejected at its header.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>

#include "chem/uccsd.hh"
#include "common/hash.hh"
#include "core/compiler.hh"
#include "hardware/topologies.hh"
#include "serialize/artifact.hh"
#include "serialize/binary.hh"
#include "serialize/stream_file.hh"

namespace tetris
{
namespace
{

using serialize::BinaryReader;
using serialize::BinaryWriter;

/** Gate-by-gate equality (Gate has no operator==). */
void
expectSameCircuit(const Circuit &a, const Circuit &b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        EXPECT_EQ(ga.kind, gb.kind) << "gate " << i;
        EXPECT_EQ(ga.q0, gb.q0) << "gate " << i;
        EXPECT_EQ(ga.q1, gb.q1) << "gate " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(ga.angle),
                  std::bit_cast<uint64_t>(gb.angle))
            << "gate " << i;
    }
}

/** A serialized circuit: header, then hand-built gate records. */
std::string
circuitBytes(int num_qubits, uint64_t count, const std::string &records)
{
    BinaryWriter w;
    w.i32(num_qubits);
    w.u64(count);
    w.bytes(records.data(), records.size());
    return w.data();
}

/** One record: kind byte, then raw varint/angle bytes. */
std::string
record(GateKind kind, const std::string &rest)
{
    return std::string(1, static_cast<char>(kind)) + rest;
}

bool
decodesCircuit(const std::string &bytes)
{
    BinaryReader r(bytes);
    Circuit c;
    const bool ok = serialize::read(r, c);
    EXPECT_EQ(ok, r.ok());
    return ok;
}

TEST(Binary, PrimitiveRoundTrip)
{
    BinaryWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.i32(-42);
    w.f64(-1.5e-300);
    w.str("length-prefixed \0 string" + std::string(1, '\0'));
    w.str("");

    BinaryReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.f64(), -1.5e-300);
    EXPECT_EQ(r.str(),
              "length-prefixed \0 string" + std::string(1, '\0'));
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(Binary, ReaderOverrunIsSticky)
{
    BinaryWriter w;
    w.u32(7);
    BinaryReader r(w.data());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_EQ(r.u64(), 0u); // overrun
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0u); // still failed
    EXPECT_FALSE(r.ok());
}

TEST(Binary, BogusStringLengthFails)
{
    BinaryWriter w;
    w.u64(uint64_t{1} << 40); // length prefix far past the buffer
    BinaryReader r(w.data());
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

TEST(Binary, VarintRoundTripAtEveryWidth)
{
    const struct
    {
        uint64_t value;
        size_t bytes; // 7 bits per byte
    } cases[] = {{0, 1},
                 {1, 1},
                 {127, 1},
                 {128, 2},
                 {300, 2},
                 {16383, 2},
                 {16384, 3},
                 {uint64_t{1} << 35, 6},
                 {(uint64_t{1} << 63) - 1, 9},
                 {uint64_t{1} << 63, 10},
                 {std::numeric_limits<uint64_t>::max(), 10}};
    for (const auto &c : cases) {
        BinaryWriter w;
        w.varint(c.value);
        EXPECT_EQ(w.size(), c.bytes) << c.value;
        BinaryReader r(w.data());
        EXPECT_EQ(r.varint(std::numeric_limits<uint64_t>::max()), c.value);
        EXPECT_TRUE(r.ok()) << c.value;
        EXPECT_TRUE(r.atEnd()) << c.value;
    }
}

TEST(Binary, PatchU64RewritesEightBytesInPlace)
{
    BinaryWriter w;
    w.u8(0xaa);
    w.u64(0);
    w.u8(0xbb);
    w.patchU64(1, 0x0102030405060708ull);
    ASSERT_EQ(w.size(), 10u);
    BinaryReader r(w.data());
    EXPECT_EQ(r.u8(), 0xaa);
    EXPECT_EQ(r.u64(), 0x0102030405060708ull);
    EXPECT_EQ(r.u8(), 0xbb);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(Binary, VarintRejectsMalformedForms)
{
    const uint64_t any = std::numeric_limits<uint64_t>::max();
    const struct
    {
        const char *why;
        std::string bytes;
        uint64_t max;
    } cases[] = {
        {"overlong zero", std::string("\x80\x00", 2), any},
        {"overlong 127", std::string("\xff\x00", 2), any},
        {"overlong 1, three bytes", std::string("\x81\x80\x00", 3), any},
        {"truncated", "\x80", any},
        {"empty", "", any},
        {"tenth byte past bit 63", std::string(9, '\xff') + "\x02", any},
        {"eleven bytes", std::string(10, '\x80') + "\x01", any},
        {"past max, one byte", "\x05", 4},
        {"past max, two bytes", "\x80\x01", 127},
    };
    for (const auto &c : cases) {
        BinaryReader r(c.bytes);
        EXPECT_EQ(r.varint(c.max), 0u) << c.why;
        EXPECT_FALSE(r.ok()) << c.why;
    }
    // The boundary values themselves decode.
    const std::string boundary("\x04\x7f\x80\x01", 4);
    BinaryReader at_max(boundary);
    EXPECT_EQ(at_max.varint(4), 4u);
    EXPECT_EQ(at_max.varint(127), 127u);
    EXPECT_EQ(at_max.varint(128), 128u);
    EXPECT_TRUE(at_max.ok());
}

TEST(Checksum64, KnownAnswers)
{
    // Pinned: a change here changes every .tca image and TSP1 frame,
    // which needs a kArtifactVersion and kProtocolVersion bump.
    // The values were cross-checked against an independent Python
    // transcription of the algorithm in common/hash.hh.
    EXPECT_EQ(checksum64("", 0), 0x2e72b4643dec7bfbull);
    const std::string fox = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(checksum64(fox.data(), fox.size()), 0x4f4ac77da2929ff9ull);
    // The length is mixed in, so zero padding is not invisible.
    EXPECT_NE(checksum64("\0", 1), checksum64("\0\0", 2));
    EXPECT_NE(checksum64("", 0), checksum64("\0", 1));
}

TEST(Checksum64, EverySingleBitFlipChangesIt)
{
    std::mt19937_64 rng(0x5eedu);
    // One spare byte in front, so every length is also read from an
    // odd address.
    std::string buf(71, '\0');
    for (char &c : buf)
        c = static_cast<char>(rng());
    for (size_t n = 0; n <= 70; ++n) {
        const char *data = buf.data() + 1;
        const uint64_t base = checksum64(data, n);
        const std::string copy(data, n);
        EXPECT_EQ(checksum64(copy.data(), n), base) << "length " << n;
        for (size_t bit = 0; bit < 8 * n; ++bit) {
            buf[1 + bit / 8] ^= static_cast<char>(1 << (bit % 8));
            EXPECT_NE(checksum64(data, n), base)
                << "length " << n << ", bit " << bit;
            buf[1 + bit / 8] ^= static_cast<char>(1 << (bit % 8));
        }
    }
}

TEST(Serialize, EmptyCircuitRoundTrip)
{
    Circuit empty;
    BinaryWriter w;
    serialize::write(w, empty);
    BinaryReader r(w.data());
    Circuit decoded(99);
    ASSERT_TRUE(serialize::read(r, decoded));
    EXPECT_TRUE(r.atEnd());
    expectSameCircuit(empty, decoded);
}

TEST(Serialize, ParameterizedGatesRoundTrip)
{
    Circuit c(5);
    c.h(0);
    c.rz(1, 0.123456789012345678);
    c.rx(2, -3.14159265358979);
    c.cx(0, 4);
    c.swap(3, 1);
    c.sdg(2);
    c.measure(4);
    c.reset(0);

    BinaryWriter w;
    serialize::write(w, c);
    BinaryReader r(w.data());
    Circuit decoded;
    ASSERT_TRUE(serialize::read(r, decoded));
    expectSameCircuit(c, decoded);
}

TEST(Serialize, ThousandGateStressRoundTrip)
{
    Circuit c(16);
    for (int i = 0; i < 1000; ++i) {
        switch (i % 4) {
          case 0: c.rz(i % 16, 0.001 * i); break;
          case 1: c.cx(i % 16, (i + 7) % 16); break;
          case 2: c.h(i % 16); break;
          default: c.swap(i % 16, (i + 3) % 16); break;
        }
    }
    ASSERT_EQ(c.size(), 1000u);

    BinaryWriter w;
    serialize::write(w, c);
    BinaryReader r(w.data());
    Circuit decoded;
    ASSERT_TRUE(serialize::read(r, decoded));
    expectSameCircuit(c, decoded);
    EXPECT_EQ(c.metrics(), decoded.metrics());
}

TEST(Serialize, CircuitRejectsOutOfRangeQubits)
{
    // A CX from 0 to 5 on two qubits: the target is past the register.
    EXPECT_FALSE(decodesCircuit(
        circuitBytes(2, 1, record(GateKind::CX, std::string("\x00\x05", 2)))));
    EXPECT_TRUE(decodesCircuit(
        circuitBytes(2, 1, record(GateKind::CX, std::string("\x00\x01", 2)))));
}

TEST(Serialize, CircuitRejectsUnknownGateKind)
{
    EXPECT_FALSE(
        decodesCircuit(circuitBytes(2, 1, std::string("\xc8\x00", 2))));
    EXPECT_FALSE(decodesCircuit(circuitBytes(
        2, 1, record(GateKind(static_cast<uint8_t>(GateKind::RESET) + 1),
                     std::string(1, '\0')))));
}

TEST(Serialize, CircuitRejectsMalformedRecords)
{
    const std::string angle(8, '\0');
    const struct
    {
        const char *why;
        std::string bytes;
    } cases[] = {
        {"overlong q0",
         circuitBytes(4, 1, record(GateKind::H, std::string("\x81\x00", 2)))},
        {"overlong q1",
         circuitBytes(4, 1, record(GateKind::CX,
                                   std::string("\x00\x82\x00", 3)))},
        {"q0 == numQubits", circuitBytes(4, 1, record(GateKind::H, "\x04"))},
        {"q1 past numQubits",
         circuitBytes(300, 1, record(GateKind::SWAP, "\x01\xac\x02"))},
        {"6-byte qubit",
         circuitBytes(4, 1, record(GateKind::H, "\x80\x80\x80\x80\x80\x01"))},
        {"CX with q1 == q0",
         circuitBytes(4, 1, record(GateKind::CX, "\x02\x02"))},
        {"SWAP with q1 == q0",
         circuitBytes(4, 1,
                      record(GateKind::SWAP, std::string("\x00\x00", 2)))},
        {"no q0", circuitBytes(4, 1, record(GateKind::X, ""))},
        {"CX without q1", circuitBytes(4, 1, record(GateKind::CX, "\x01"))},
        {"RZ with half an angle",
         circuitBytes(4, 1, record(GateKind::RZ, "\x01" + angle.substr(4)))},
        {"one record short",
         circuitBytes(4, 2,
                      record(GateKind::RZ, "\x01" + angle) +
                          std::string(1, '\0'))},
        {"count past remaining / 2",
         circuitBytes(4, 3, record(GateKind::H, "\x01") + "\x01\x02\x03")},
        {"gate on an empty register",
         circuitBytes(0, 1, record(GateKind::H, std::string(1, '\0')))},
        {"negative numQubits", circuitBytes(-1, 0, "")},
    };
    for (const auto &c : cases)
        EXPECT_FALSE(decodesCircuit(c.bytes)) << c.why;

    // The nearest well-formed neighbours decode: the rejections above
    // are the malformations, not the framing.
    EXPECT_TRUE(
        decodesCircuit(circuitBytes(4, 1, record(GateKind::H, "\x03"))));
    EXPECT_TRUE(decodesCircuit(
        circuitBytes(300, 1, record(GateKind::SWAP, "\x01\xab\x02"))));
    EXPECT_TRUE(decodesCircuit(
        circuitBytes(4, 2,
                     record(GateKind::RZ, "\x01" + angle) +
                         record(GateKind::CX, "\x02\x03"))));
    EXPECT_TRUE(decodesCircuit(circuitBytes(0, 0, "")));
}

TEST(Serialize, DecodedGatesTakeTheCompactForm)
{
    // One-qubit gates come back with q1 = -1, and kinds without an
    // angle with angle 0.0, the form the compilers emit them in.
    const std::string bytes = circuitBytes(
        3, 3,
        record(GateKind::H, "\x02") +
            record(GateKind::CX, std::string("\x00\x01", 2)) +
            record(GateKind::MEASURE, "\x01"));
    BinaryReader r(bytes);
    Circuit c;
    ASSERT_TRUE(serialize::read(r, c));
    ASSERT_EQ(c.size(), 3u);
    for (const Gate &g : c.gates()) {
        EXPECT_EQ(g.q1, g.isTwoQubit() ? g.q1 : -1) << g.toString();
        EXPECT_EQ(std::bit_cast<uint64_t>(g.angle), 0u) << g.toString();
    }
    EXPECT_EQ(c.gates()[1].q0, 0);
    EXPECT_EQ(c.gates()[1].q1, 1);
}

TEST(Serialize, StatsRoundTrip)
{
    CompileStats s;
    s.cnotCount = 123;
    s.oneQubitCount = 456;
    s.totalGateCount = 579;
    s.depth = 42;
    s.durationDt = 1234.5;
    s.swapCount = 7;
    s.swapCnots = 21;
    s.logicalCnots = 102;
    s.originalCnots = 200;
    s.cancelRatio = 0.49;
    s.compileSeconds = 0.125;
    s.scheduleSeconds = 0.01;
    s.synthSeconds = 0.1;
    s.peepholeSeconds = 0.015;
    s.synthesis.insertedSwaps = 7;
    s.synthesis.emittedCx = 102;
    s.synthesis.bridgeNodes = 3;
    s.synthesis.blocksWithCancellation = 9;
    s.synthesis.blocksFallback = 1;

    BinaryWriter w;
    serialize::write(w, s);
    BinaryReader r(w.data());
    CompileStats d;
    ASSERT_TRUE(serialize::read(r, d));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(d.cnotCount, s.cnotCount);
    EXPECT_EQ(d.oneQubitCount, s.oneQubitCount);
    EXPECT_EQ(d.totalGateCount, s.totalGateCount);
    EXPECT_EQ(d.depth, s.depth);
    EXPECT_EQ(d.durationDt, s.durationDt);
    EXPECT_EQ(d.swapCount, s.swapCount);
    EXPECT_EQ(d.swapCnots, s.swapCnots);
    EXPECT_EQ(d.logicalCnots, s.logicalCnots);
    EXPECT_EQ(d.originalCnots, s.originalCnots);
    EXPECT_EQ(d.cancelRatio, s.cancelRatio);
    EXPECT_EQ(d.synthesis.insertedSwaps, s.synthesis.insertedSwaps);
    EXPECT_EQ(d.synthesis.blocksFallback, s.synthesis.blocksFallback);
    // The timings are measurements, not outputs: not stored, so they
    // decode as 0.0 even into a value that held others.
    d.compileSeconds = d.scheduleSeconds = d.synthSeconds =
        d.peepholeSeconds = 1.0;
    BinaryReader again(w.data());
    ASSERT_TRUE(serialize::read(again, d));
    EXPECT_EQ(d.compileSeconds, 0.0);
    EXPECT_EQ(d.scheduleSeconds, 0.0);
    EXPECT_EQ(d.synthSeconds, 0.0);
    EXPECT_EQ(d.peepholeSeconds, 0.0);
}

TEST(Serialize, LayoutRoundTripWithFreeAndEvictedQubits)
{
    Layout layout(4, 8);
    layout.applySwap(1, 6);
    layout.evict(2); // slot 2 becomes free, logical 2 unplaced

    BinaryWriter w;
    serialize::write(w, layout);
    BinaryReader r(w.data());
    Layout decoded;
    ASSERT_TRUE(serialize::read(r, decoded));
    EXPECT_EQ(decoded, layout);
}

TEST(Serialize, LayoutRejectsNonInjectiveMapping)
{
    BinaryWriter w;
    w.i32(4);  // physical
    w.u64(2);  // logical
    w.i32(3);
    w.i32(3);  // two logical qubits on one physical slot
    BinaryReader r(w.data());
    Layout decoded;
    EXPECT_FALSE(serialize::read(r, decoded));
    EXPECT_FALSE(
        Layout::fromMapping(std::vector<int>{3, 3}, 4).has_value());
    EXPECT_FALSE(
        Layout::fromMapping(std::vector<int>{0, 9}, 4).has_value());
    EXPECT_TRUE(
        Layout::fromMapping(std::vector<int>{3, -1, 0}, 4).has_value());
}

TEST(Serialize, LayoutRejectsAbsurdPhysicalCount)
{
    // A crafted file must not drive a huge up-front allocation.
    BinaryWriter w;
    w.i32((1 << 24) + 1);
    w.u64(0);
    BinaryReader r(w.data());
    Layout decoded;
    EXPECT_FALSE(serialize::read(r, decoded));
}

/** A real compilation round-tripped through the artifact envelope. */
class ArtifactRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        CouplingGraph hw = heavyHexTopology(2, 5);
        blocks_ = buildSyntheticUcc(8, 33);
        result_ = compileTetris(blocks_, hw);
        key_ = 0x1122334455667788ull;
        image_ = serialize::encodeArtifact(key_, result_);
        ASSERT_FALSE(image_.empty());
    }

    std::vector<PauliBlock> blocks_;
    CompileResult result_;
    uint64_t key_ = 0;
    std::string image_;
};

TEST_F(ArtifactRoundTrip, DecodesBitIdentical)
{
    CompileResult decoded;
    ASSERT_TRUE(serialize::decodeArtifact(image_, key_, decoded));
    expectSameCircuit(result_.circuit, decoded.circuit);
    EXPECT_EQ(decoded.stats.cnotCount, result_.stats.cnotCount);
    EXPECT_EQ(decoded.stats.depth, result_.stats.depth);
    EXPECT_EQ(decoded.stats.durationDt, result_.stats.durationDt);
    EXPECT_EQ(decoded.stats.cancelRatio, result_.stats.cancelRatio);
    // A fresh compile measured its time; the image does not keep it.
    EXPECT_GT(result_.stats.compileSeconds, 0.0);
    EXPECT_EQ(decoded.stats.compileSeconds, 0.0);
    EXPECT_EQ(decoded.stats.scheduleSeconds, 0.0);
    EXPECT_EQ(decoded.stats.synthSeconds, 0.0);
    EXPECT_EQ(decoded.stats.peepholeSeconds, 0.0);
    EXPECT_EQ(decoded.finalLayout, result_.finalLayout);
    EXPECT_EQ(decoded.blockOrder, result_.blockOrder);
    EXPECT_FALSE(decoded.cancelled);
}

TEST_F(ArtifactRoundTrip, TruncationIsRejected)
{
    CompileResult decoded;
    // Every prefix must fail cleanly — headers, payload, checksum.
    for (size_t len = 0; len < image_.size(); ++len) {
        EXPECT_FALSE(serialize::decodeArtifact(
            std::string_view(image_).substr(0, len), key_, decoded))
            << "prefix length " << len;
    }
}

TEST_F(ArtifactRoundTrip, TrailingGarbageIsRejected)
{
    CompileResult decoded;
    EXPECT_FALSE(
        serialize::decodeArtifact(image_ + "x", key_, decoded));
}

TEST_F(ArtifactRoundTrip, BitFlipsAreRejected)
{
    CompileResult decoded;
    // Flip every byte in turn: header, payload, and checksum
    // corruption must all read as a miss.
    std::string bad = image_;
    for (size_t pos = 0; pos < bad.size(); ++pos) {
        bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
        EXPECT_FALSE(serialize::decodeArtifact(bad, key_, decoded))
            << "flip at offset " << pos;
        bad[pos] = image_[pos];
    }
}

TEST_F(ArtifactRoundTrip, VersionMismatchIsRejected)
{
    // The version field sits right after the 4-byte magic. Version 2
    // is the 17-bytes-per-gate layout and version 3 stored the
    // timings: their images must read as misses, never be parsed
    // with today's records.
    for (uint32_t version : {2u, 3u, serialize::kArtifactVersion + 1}) {
        std::string skewed = image_;
        skewed[4] = static_cast<char>(version);
        CompileResult decoded;
        EXPECT_FALSE(serialize::decodeArtifact(skewed, key_, decoded))
            << "version " << version;
    }
}

TEST_F(ArtifactRoundTrip, WrongKeyIsRejected)
{
    CompileResult decoded;
    EXPECT_FALSE(serialize::decodeArtifact(image_, key_ + 1, decoded));
}

TEST_F(ArtifactRoundTrip, ForeignBytesAreRejected)
{
    CompileResult decoded;
    EXPECT_FALSE(serialize::decodeArtifact("not an artifact at all",
                                           key_, decoded));
    EXPECT_FALSE(serialize::decodeArtifact(std::string(1024, '\0'),
                                           key_, decoded));
}

TEST_F(ArtifactRoundTrip, ImageIsCompact)
{
    // About 3 bytes per gate (the v2 records took 17).
    EXPECT_LT(image_.size(), 4 * result_.circuit.size() + 1024)
        << image_.size() << " bytes for " << result_.circuit.size()
        << " gates";
}

TEST_F(ArtifactRoundTrip, OlderStreamHeaderIsRejected)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() /
        ("tetris-serialize-" + std::to_string(::getpid()) + ".tcs");
    {
        serialize::StreamArtifactWriter writer(path.string());
        ASSERT_TRUE(writer.append(key_, result_));
    }
    auto first = [&] {
        serialize::StreamArtifactReader reader(path.string());
        uint64_t key = 0;
        CompileResult res;
        return reader.next(key, res);
    };
    EXPECT_EQ(first(), serialize::StreamArtifactReader::Status::Record);

    // Version 1 files hold version 2 images and version 2 files
    // version 3 images: the header, bytes 4..7, rejects them before
    // any record is read.
    for (char version : {1, 2}) {
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekp(4);
            const char older[4] = {version, 0, 0, 0};
            f.write(older, sizeof older);
        }
        EXPECT_EQ(first(), serialize::StreamArtifactReader::Status::Corrupt)
            << "version " << int{version};
    }
    fs::remove(path);
}

TEST(Serialize, CancelledResultRoundTrips)
{
    CompileResult cancelled;
    cancelled.cancelled = true;
    std::string image = serialize::encodeArtifact(1, cancelled);
    CompileResult decoded;
    ASSERT_TRUE(serialize::decodeArtifact(image, 1, decoded));
    EXPECT_TRUE(decoded.cancelled);
    EXPECT_TRUE(decoded.circuit.empty());
}

} // namespace
} // namespace tetris
