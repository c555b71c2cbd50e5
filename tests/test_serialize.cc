/**
 * @file
 * Serialization-layer tests: binary primitive round-trips and
 * overrun behavior, circuit/stats/layout component round-trips
 * (empty, parameterized, 1000-gate stress), full compile-artifact
 * round-trips against a real compilation, and the decode-rejection
 * matrix — truncation, bit flips, version skew, wrong key, foreign
 * bytes — that the disk cache relies on to treat corruption as a
 * plain miss.
 */

#include <gtest/gtest.h>

#include <string>

#include "chem/uccsd.hh"
#include "core/compiler.hh"
#include "hardware/topologies.hh"
#include "serialize/artifact.hh"
#include "serialize/binary.hh"

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
        EXPECT_EQ(ga.angle, gb.angle) << "gate " << i;
    }
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
    BinaryWriter w;
    w.i32(2);   // numQubits
    w.u64(1);   // one gate
    w.u8(static_cast<uint8_t>(GateKind::CX));
    w.i32(0);
    w.i32(5);   // target out of range
    w.f64(0.0);
    BinaryReader r(w.data());
    Circuit decoded;
    EXPECT_FALSE(serialize::read(r, decoded));
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, CircuitRejectsUnknownGateKind)
{
    BinaryWriter w;
    w.i32(2);
    w.u64(1);
    w.u8(200); // no such GateKind
    w.i32(0);
    w.i32(-1);
    w.f64(0.0);
    BinaryReader r(w.data());
    Circuit decoded;
    EXPECT_FALSE(serialize::read(r, decoded));
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
    EXPECT_EQ(d.compileSeconds, s.compileSeconds);
    EXPECT_EQ(d.synthesis.insertedSwaps, s.synthesis.insertedSwaps);
    EXPECT_EQ(d.synthesis.blocksFallback, s.synthesis.blocksFallback);
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
    EXPECT_EQ(decoded.stats.compileSeconds,
              result_.stats.compileSeconds);
    EXPECT_EQ(decoded.finalLayout, result_.finalLayout);
    EXPECT_EQ(decoded.blockOrder, result_.blockOrder);
    EXPECT_FALSE(decoded.cancelled);
}

TEST_F(ArtifactRoundTrip, TruncationIsRejected)
{
    CompileResult decoded;
    // Every prefix must fail cleanly — headers, payload, checksum.
    for (size_t len : {size_t{0}, size_t{3}, size_t{8}, size_t{20},
                       image_.size() / 2, image_.size() - 1}) {
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
    // Flip one byte at a spread of offsets: header, payload, and
    // checksum corruption must all read as a miss.
    for (size_t pos = 0; pos < image_.size();
         pos += 1 + image_.size() / 23) {
        std::string bad = image_;
        bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
        EXPECT_FALSE(serialize::decodeArtifact(bad, key_, decoded))
            << "flip at offset " << pos;
    }
}

TEST_F(ArtifactRoundTrip, VersionMismatchIsRejected)
{
    // The version field sits right after the 4-byte magic.
    std::string skewed = image_;
    skewed[4] = static_cast<char>(serialize::kArtifactVersion + 1);
    CompileResult decoded;
    EXPECT_FALSE(serialize::decodeArtifact(skewed, key_, decoded));
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
