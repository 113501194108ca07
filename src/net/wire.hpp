// Wire format for the distributed machine (DESIGN.md §11).
//
// The paper's headline guarantee for Tree-Reduce-2 — "at most one
// inter-processor communication per node's pair of offspring values" — is
// only testable when an inter-processor message has a real cost. This
// module defines that cost: a versioned, length-prefixed frame format with
// a compact binary codec for Terms and runtime control messages, shared by
// every transport (in-process loopback and TCP alike), so a "message" is
// the same sequence of bytes whether it crosses a socket or a function
// call.
//
// Framing:   [u32 length][u8 version][u8 type][type-specific payload]
//   * length counts everything after the length word; frames larger than
//     kMaxFrameBytes are rejected as corrupt.
//   * all integers are little-endian, written and read byte by byte — the
//     codec is endian-safe regardless of host byte order.
//   * an unknown version or type, a payload that does not parse, or
//     trailing bytes after the payload are decode errors (WireError), so
//     corruption cannot be silently half-read.
//
// Term codec: tagged, recursive, with three properties the tests assert:
//   * round-trip exact — decode(encode(t)) is alpha-equal to t, including
//     variable *sharing* (occurrences of one cell encode as references to
//     one definition index) and variable names;
//   * bounded recursion — nesting beyond kMaxTermDepth is rejected on both
//     encode and decode, and list spines are encoded iteratively so a long
//     list costs O(1) depth, not O(n);
//   * allocation-bounded decode — every count field (string length, arity,
//     list length) is validated against the bytes actually remaining, so a
//     corrupted length cannot trigger a huge allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "term/term.hpp"

namespace motif::net {

/// Any framing or codec violation: truncation, bad version, unknown tag,
/// depth overflow, count overflow, trailing bytes.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint8_t kWireVersion = 3;
/// Upper bound on one frame's post-length-word size; larger lengths are
/// treated as corruption, not as a request for a 4 GiB buffer.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;
/// Maximum Term nesting accepted by encode_term/decode_term.
inline constexpr std::uint32_t kMaxTermDepth = 200;

// ---- primitive little-endian encoder/decoder -------------------------------

class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // IEEE-754 bits, little-endian (wire.cpp)
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  std::vector<std::uint8_t>& data() { return buf_; }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Decoder {
 public:
  Decoder(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(p_[0] | (p_[1] << 8));
    p_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();  // wire.cpp
  std::string str() {
    const std::uint32_t n = u32();
    if (n > remaining()) throw WireError("truncated string");
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw WireError("truncated frame payload");
  }
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// ---- Term codec ------------------------------------------------------------

/// Appends the binary encoding of `t` (dereferenced) to `e`. Preserves
/// variable identity: every occurrence of one unbound cell encodes as a
/// reference to the same definition index. Throws WireError when nesting
/// exceeds kMaxTermDepth (list spines count as one level).
void encode_term(Encoder& e, const term::Term& t);

/// Decodes one Term. Decoded variables are fresh cells: the result is
/// alpha-equal to (not cell-identical with) the encoded term, with the
/// original sharing structure. Throws WireError on any malformation.
term::Term decode_term(Decoder& d);

/// Convenience: encode_term into a fresh byte vector.
std::vector<std::uint8_t> term_bytes(const term::Term& t);
/// Convenience: decode exactly one term from `[p, p+n)`; trailing bytes
/// are a WireError.
term::Term term_from_bytes(const std::uint8_t* p, std::size_t n);

// ---- frames ----------------------------------------------------------------

enum class FrameType : std::uint8_t {
  Hello = 1,    ///< first frame on a TCP connection: version + sender rank
  Post = 4,     ///< data: deliver `payload` to `handler` on `dst_node`
  Probe = 5,    ///< rank 0 -> rank: termination probe for `round`
  ProbeReply = 6,  ///< rank -> rank 0: idle flag + tx/rx frame counts
  Shutdown = 8, ///< rank 0 -> all: tear the cluster down (or, never on the
                ///< wire, the sender's link was lost: transport.hpp)
};

/// One decoded wire frame. A plain struct rather than a variant: only the
/// fields implied by `type` are meaningful (the codec writes and reads
/// exactly those), everything else stays default.
struct Frame {
  FrameType type = FrameType::Post;
  std::uint32_t src_rank = 0;  ///< sender rank (all frame types)

  // Post
  std::uint64_t dst_node = 0;  ///< global NodeId of the destination
  std::uint16_t handler = 0;   ///< cluster handler registry index
  std::uint64_t trace_id = 0;  ///< nonzero: flow id linking MsgSend/MsgRecv
  term::Term payload;          ///< argument term (default: nil)

  // Probe / ProbeReply
  std::uint64_t round = 0;
  std::uint64_t tx = 0;   ///< ProbeReply: post frames sent by this rank
  std::uint64_t rx = 0;   ///< ProbeReply: post frames received by this rank
  bool idle = false;      ///< ProbeReply: local machine quiescent
};

/// Encodes `f` as one length-prefixed frame (header + payload).
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Attempts to decode one frame from the front of `[p, p+n)`.
///   * complete frame  -> the Frame; *consumed = its full wire size
///   * incomplete      -> nullopt; *consumed = 0 (read more bytes)
///   * corrupt         -> WireError (bad version/type/length/payload)
std::optional<Frame> decode_frame(const std::uint8_t* p, std::size_t n,
                                  std::size_t* consumed);

}  // namespace motif::net
