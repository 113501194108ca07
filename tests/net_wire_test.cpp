// Wire-format unit tests: golden little-endian bytes, per-tag round
// trips, variable sharing, framing (incomplete vs corrupt), and the
// recursion-depth bound in both directions.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/wire.hpp"
#include "term/subst.hpp"

namespace n = motif::net;
namespace t = motif::term;
using t::Term;

namespace {

std::vector<std::uint8_t> bytes_of(const Term& x) { return n::term_bytes(x); }

Term round_trip(const Term& x) {
  const auto b = bytes_of(x);
  return n::term_from_bytes(b.data(), b.size());
}

}  // namespace

TEST(WirePrimitives, LittleEndianGolden) {
  n::Encoder e;
  e.u8(0xAB);
  e.u16(0x1234);
  e.u32(0xDEADBEEF);
  e.u64(0x0102030405060708ull);
  e.str("hi");
  const std::vector<std::uint8_t> expect = {
      0xAB,                                            // u8
      0x34, 0x12,                                      // u16 LE
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32 LE
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64 LE
      0x02, 0x00, 0x00, 0x00, 'h', 'i',                // str = len + bytes
  };
  EXPECT_EQ(e.data(), expect);

  n::Decoder d(e.data().data(), e.size());
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u16(), 0x1234);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0102030405060708ull);
  EXPECT_EQ(d.str(), "hi");
  EXPECT_TRUE(d.done());
}

TEST(WirePrimitives, SignedAndFloat) {
  n::Encoder e;
  e.i64(-42);
  e.f64(3.25);
  e.f64(-0.0);
  n::Decoder d(e.data().data(), e.size());
  EXPECT_EQ(d.i64(), -42);
  EXPECT_EQ(d.f64(), 3.25);
  const double nz = d.f64();
  EXPECT_EQ(nz, 0.0);
  EXPECT_TRUE(std::signbit(nz));  // bit-exact, not value-approximate
}

TEST(WireTerm, EveryTagRoundTrips) {
  const Term cases[] = {
      Term::integer(0),
      Term::integer(-123456789),
      Term::real(2.5),
      Term::atom("foo"),
      Term::atom("quoted atom"),
      Term::str("hello \"wire\""),
      Term::nil(),
      Term::var("X"),
      Term::compound("f", {Term::integer(1), Term::atom("a")}),
      Term::tuple({Term::integer(1), Term::integer(2), Term::integer(3)}),
      Term::tuple({}),  // {} is a zero-arity compound, not an atom
      Term::list({Term::integer(1), Term::integer(2)}),
  };
  for (const Term& x : cases) {
    const Term y = round_trip(x);
    EXPECT_TRUE(t::alpha_equal(x, y)) << x.to_string() << " vs "
                                      << y.to_string();
  }
}

TEST(WireTerm, VariableSharingSurvives) {
  Term v = Term::var("X");
  Term w = Term::var("Y");
  const Term x = Term::compound("pair", {v, Term::compound("q", {v, w})});
  const Term y = round_trip(x);
  ASSERT_TRUE(t::alpha_equal(x, y));
  // Both occurrences of X decode to the SAME fresh cell.
  const Term y1 = y.arg(0);
  const Term y2 = y.arg(1).arg(0);
  const Term y3 = y.arg(1).arg(1);
  EXPECT_TRUE(y1.same_node(y2));
  EXPECT_FALSE(y1.same_node(y3));
  EXPECT_EQ(y1.var_name(), "X");
  EXPECT_EQ(y3.var_name(), "Y");
}

TEST(WireTerm, BoundVariablesEncodeTheirValue) {
  Term v = Term::var("X");
  v.bind(Term::integer(7));
  const Term y = round_trip(Term::compound("f", {v}));
  EXPECT_TRUE(t::alpha_equal(y, Term::compound("f", {Term::integer(7)})));
}

TEST(WireTerm, ImproperAndLongLists) {
  // Improper list keeps its variable tail.
  Term tail = Term::var("T");
  const Term x = Term::list({Term::integer(1), Term::integer(2)}, tail);
  EXPECT_TRUE(t::alpha_equal(x, round_trip(x)));

  // A list far longer than kMaxTermDepth still round-trips: the spine is
  // encoded iteratively, one depth level total.
  std::vector<Term> items;
  for (int i = 0; i < 10000; ++i) items.push_back(Term::integer(i));
  const Term longlist = Term::list(items);
  const Term y = round_trip(longlist);
  auto back = y.proper_list();
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 10000u);
  EXPECT_EQ((*back)[9999].int_value(), 9999);
}

TEST(WireTerm, DepthBoundOnEncode) {
  Term x = Term::integer(0);
  for (std::uint32_t i = 0; i <= n::kMaxTermDepth; ++i) {
    x = Term::compound("f", {x});
  }
  n::Encoder e;
  EXPECT_THROW(n::encode_term(e, x), n::WireError);
}

TEST(WireTerm, DepthBoundOnDecode) {
  // Hand-build bytes nesting deeper than the bound: kCompound("f",1) * N.
  n::Encoder e;
  for (std::uint32_t i = 0; i <= n::kMaxTermDepth; ++i) {
    e.u8(0x06);  // kCompound
    e.str("f");
    e.u16(1);
  }
  e.u8(0x03);  // kInt
  e.i64(1);
  n::Decoder d(e.data().data(), e.size());
  EXPECT_THROW(n::decode_term(d), n::WireError);
}

TEST(WireTerm, TrailingBytesRejected) {
  auto b = bytes_of(Term::integer(5));
  b.push_back(0x00);
  EXPECT_THROW(n::term_from_bytes(b.data(), b.size()), n::WireError);
}

TEST(WireTerm, CorruptCountsRejectedWithoutHugeAllocation) {
  // kList with a 4-billion count but 1 byte of payload.
  n::Encoder e;
  e.u8(0x07);
  e.u32(0xFFFFFFFFu);
  e.u8(0x03);
  EXPECT_THROW(n::term_from_bytes(e.data().data(), e.size()), n::WireError);

  // VarRef beyond the definition table.
  n::Encoder e2;
  e2.u8(0x01);
  e2.u32(3);
  EXPECT_THROW(n::term_from_bytes(e2.data().data(), e2.size()), n::WireError);
}

TEST(WireFrame, PostRoundTripsAllFields) {
  n::Frame f;
  f.type = n::FrameType::Post;
  f.src_rank = 3;
  f.dst_node = 41;
  f.handler = 7;
  f.trace_id = 0xABCDEF0102ull;
  f.payload = Term::tuple({Term::integer(1), Term::atom("go")});
  const auto b = n::encode_frame(f);

  std::size_t consumed = 0;
  auto g = n::decode_frame(b.data(), b.size(), &consumed);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(consumed, b.size());
  EXPECT_EQ(g->type, n::FrameType::Post);
  EXPECT_EQ(g->src_rank, 3u);
  EXPECT_EQ(g->dst_node, 41u);
  EXPECT_EQ(g->handler, 7u);
  EXPECT_EQ(g->trace_id, 0xABCDEF0102ull);
  EXPECT_TRUE(t::alpha_equal(g->payload, f.payload));
}

TEST(WireFrame, ControlFramesRoundTrip) {
  n::Frame f;
  f.type = n::FrameType::ProbeReply;
  f.src_rank = 2;
  f.round = 9;
  f.tx = 123;
  f.rx = 120;
  f.idle = true;
  const auto b = n::encode_frame(f);
  std::size_t consumed = 0;
  auto g = n::decode_frame(b.data(), b.size(), &consumed);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->round, 9u);
  EXPECT_EQ(g->tx, 123u);
  EXPECT_EQ(g->rx, 120u);
  EXPECT_TRUE(g->idle);
}

TEST(WireFrame, IncompleteIsNotCorrupt) {
  n::Frame f;
  f.type = n::FrameType::Post;
  f.payload = Term::str("a reasonably long payload string");
  const auto b = n::encode_frame(f);
  // Every strict prefix must return nullopt (read more), never throw.
  for (std::size_t cut = 0; cut < b.size(); ++cut) {
    std::size_t consumed = 99;
    auto g = n::decode_frame(b.data(), cut, &consumed);
    EXPECT_FALSE(g.has_value()) << "prefix " << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(WireFrame, TwoFramesBackToBack) {
  n::Frame a;
  a.type = n::FrameType::Probe;
  a.round = 1;
  n::Frame b;
  b.type = n::FrameType::Post;
  b.dst_node = 5;
  b.payload = Term::integer(42);
  auto buf = n::encode_frame(a);
  const auto second = n::encode_frame(b);
  buf.insert(buf.end(), second.begin(), second.end());

  std::size_t consumed = 0;
  auto f1 = n::decode_frame(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, n::FrameType::Probe);
  auto f2 = n::decode_frame(buf.data() + consumed, buf.size() - consumed,
                            &consumed);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, n::FrameType::Post);
  EXPECT_EQ(f2->payload.int_value(), 42);
}

TEST(WireFrame, VersionMismatchRejected) {
  n::Frame f;
  f.type = n::FrameType::Shutdown;
  auto b = n::encode_frame(f);
  b[4] = n::kWireVersion + 1;  // version byte follows the 4-byte length
  std::size_t consumed = 0;
  EXPECT_THROW(n::decode_frame(b.data(), b.size(), &consumed), n::WireError);
}

TEST(WireFrame, UnknownTypeAndBadLengthRejected) {
  n::Frame f;
  f.type = n::FrameType::Shutdown;
  std::size_t consumed = 0;
  // Type bytes: none, the retired Join, Start and Release frames, and out
  // of range.
  for (const std::uint8_t type : {0x00, 0x02, 0x03, 0x07, 0x7F}) {
    auto b = n::encode_frame(f);
    b[5] = type;
    EXPECT_THROW(n::decode_frame(b.data(), b.size(), &consumed), n::WireError)
        << int{type};
  }

  // Length word claiming more than kMaxFrameBytes.
  auto c = n::encode_frame(f);
  c[0] = 0xFF;
  c[1] = 0xFF;
  c[2] = 0xFF;
  c[3] = 0xFF;
  EXPECT_THROW(n::decode_frame(c.data(), c.size(), &consumed), n::WireError);
}

TEST(WireFrame, TrailingPayloadBytesRejected) {
  n::Frame f;
  f.type = n::FrameType::Shutdown;
  auto b = n::encode_frame(f);
  // Grow the declared length and append a stray byte: the payload no
  // longer ends where the frame does.
  b.push_back(0xAA);
  const std::uint32_t len = static_cast<std::uint32_t>(b.size() - 4);
  b[0] = static_cast<std::uint8_t>(len);
  b[1] = static_cast<std::uint8_t>(len >> 8);
  b[2] = static_cast<std::uint8_t>(len >> 16);
  b[3] = static_cast<std::uint8_t>(len >> 24);
  std::size_t consumed = 0;
  EXPECT_THROW(n::decode_frame(b.data(), b.size(), &consumed), n::WireError);
}
