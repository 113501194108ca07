#include "net/wire.hpp"

#include <bit>
#include <unordered_map>
#include <vector>

namespace motif::net {

void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
double Decoder::f64() { return std::bit_cast<double>(u64()); }

namespace {

// Term codec tags. VarDef/VarRef preserve sharing: the first occurrence of
// an unbound cell is a VarDef (implicitly numbered in definition order),
// later occurrences are VarRefs to that number. List gets its own tag so a
// spine of n cons cells costs one recursion level, not n.
enum TermTag : std::uint8_t {
  kVarDef = 0x00,
  kVarRef = 0x01,
  kAtom = 0x02,
  kInt = 0x03,
  kFloat = 0x04,
  kStr = 0x05,
  kCompound = 0x06,
  kList = 0x07,
};

using VarIndex =
    std::unordered_map<term::Term, std::uint32_t, term::TermHash, term::TermIdEq>;

void encode_rec(Encoder& e, const term::Term& raw, VarIndex& vars,
                std::uint32_t depth) {
  if (depth > kMaxTermDepth) throw WireError("term too deep to encode");
  const term::Term t = raw.deref();
  switch (t.tag()) {
    case term::Tag::Var: {
      auto [it, fresh] =
          vars.emplace(t, static_cast<std::uint32_t>(vars.size()));
      if (fresh) {
        e.u8(kVarDef);
        e.str(t.var_name());
      } else {
        e.u8(kVarRef);
        e.u32(it->second);
      }
      return;
    }
    case term::Tag::Int:
      e.u8(kInt);
      e.i64(t.int_value());
      return;
    case term::Tag::Float:
      e.u8(kFloat);
      e.f64(t.float_value());
      return;
    case term::Tag::Str:
      e.u8(kStr);
      e.str(t.str_value());
      return;
    case term::Tag::Atom:
      e.u8(kAtom);
      e.str(t.functor());
      return;
    case term::Tag::Compound: {
      if (t.is_cons()) {
        // Walk the spine iteratively; the tail is whatever the spine ends
        // in (nil for proper lists, a variable or other term otherwise).
        std::vector<term::Term> items;
        term::Term cell = t;
        while (cell.is_cons()) {
          items.push_back(cell.head());
          cell = cell.tail().deref();
        }
        e.u8(kList);
        e.u32(static_cast<std::uint32_t>(items.size()));
        for (const term::Term& item : items) {
          encode_rec(e, item, vars, depth + 1);
        }
        encode_rec(e, cell, vars, depth + 1);
        return;
      }
      e.u8(kCompound);
      e.str(t.functor());
      if (t.arity() > 0xFFFF) throw WireError("compound arity too large");
      e.u16(static_cast<std::uint16_t>(t.arity()));
      for (const term::Term& a : t.args()) {
        encode_rec(e, a, vars, depth + 1);
      }
      return;
    }
  }
  throw WireError("unencodable term tag");
}

term::Term decode_rec(Decoder& d, std::vector<term::Term>& vars,
                      std::uint32_t depth) {
  if (depth > kMaxTermDepth) throw WireError("term too deep to decode");
  const std::uint8_t tag = d.u8();
  switch (tag) {
    case kVarDef: {
      term::Term v = term::Term::var(d.str());
      vars.push_back(v);
      return v;
    }
    case kVarRef: {
      const std::uint32_t idx = d.u32();
      if (idx >= vars.size()) throw WireError("variable reference out of range");
      return vars[idx];
    }
    case kAtom:
      return term::Term::atom(d.str());
    case kInt:
      return term::Term::integer(d.i64());
    case kFloat:
      return term::Term::real(d.f64());
    case kStr:
      return term::Term::str(d.str());
    case kCompound: {
      std::string functor = d.str();
      const std::uint16_t arity = d.u16();
      // Each argument takes at least one tag byte — a cheap bound that
      // stops a corrupted arity from reserving a huge vector.
      if (arity > d.remaining()) throw WireError("compound arity exceeds frame");
      std::vector<term::Term> args;
      args.reserve(arity);
      for (std::uint16_t i = 0; i < arity; ++i) {
        args.push_back(decode_rec(d, vars, depth + 1));
      }
      // The empty tuple {} is a zero-arity compound, but compound() with no
      // args normalizes to an atom — route tuples through tuple().
      if (functor == "{}") return term::Term::tuple(std::move(args));
      if (args.empty()) throw WireError("compound with zero arity");
      return term::Term::compound(std::move(functor), std::move(args));
    }
    case kList: {
      const std::uint32_t count = d.u32();
      if (count > d.remaining()) throw WireError("list length exceeds frame");
      std::vector<term::Term> items;
      items.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        items.push_back(decode_rec(d, vars, depth + 1));
      }
      term::Term tail = decode_rec(d, vars, depth + 1);
      return term::Term::list(std::move(items), std::move(tail));
    }
    default:
      throw WireError("unknown term tag");
  }
}

}  // namespace

void encode_term(Encoder& e, const term::Term& t) {
  VarIndex vars;
  encode_rec(e, t, vars, 0);
}

term::Term decode_term(Decoder& d) {
  std::vector<term::Term> vars;
  return decode_rec(d, vars, 0);
}

std::vector<std::uint8_t> term_bytes(const term::Term& t) {
  Encoder e;
  encode_term(e, t);
  return std::move(e.data());
}

term::Term term_from_bytes(const std::uint8_t* p, std::size_t n) {
  Decoder d(p, n);
  term::Term t = decode_term(d);
  if (!d.done()) throw WireError("trailing bytes after term");
  return t;
}

// ---- frames ----------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  Encoder body;
  body.u8(kWireVersion);
  body.u8(static_cast<std::uint8_t>(f.type));
  body.u32(f.src_rank);
  switch (f.type) {
    case FrameType::Hello:
    case FrameType::Shutdown:
      break;  // header only
    case FrameType::Post:
      body.u64(f.dst_node);
      body.u16(f.handler);
      body.u64(f.trace_id);
      encode_term(body, f.payload);
      break;
    case FrameType::Probe:
      body.u64(f.round);
      break;
    case FrameType::ProbeReply:
      body.u64(f.round);
      body.u64(f.tx);
      body.u64(f.rx);
      body.u8(f.idle ? 1 : 0);
      break;
  }
  if (body.size() > kMaxFrameBytes) throw WireError("frame too large");

  Encoder out;
  out.u32(static_cast<std::uint32_t>(body.size()));
  out.data().insert(out.data().end(), body.data().begin(), body.data().end());
  return std::move(out.data());
}

std::optional<Frame> decode_frame(const std::uint8_t* p, std::size_t n,
                                  std::size_t* consumed) {
  *consumed = 0;
  if (n < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  if (len > kMaxFrameBytes) throw WireError("frame length exceeds limit");
  if (len < 6) throw WireError("frame shorter than header");
  if (n < 4u + len) return std::nullopt;

  Decoder d(p + 4, len);
  const std::uint8_t version = d.u8();
  if (version != kWireVersion) throw WireError("wire version mismatch");
  Frame f;
  f.type = static_cast<FrameType>(d.u8());
  f.src_rank = d.u32();
  switch (f.type) {
    case FrameType::Hello:
    case FrameType::Shutdown:
      break;
    case FrameType::Post:
      f.dst_node = d.u64();
      f.handler = d.u16();
      f.trace_id = d.u64();
      f.payload = decode_term(d);
      break;
    case FrameType::Probe:
      f.round = d.u64();
      break;
    case FrameType::ProbeReply:
      f.round = d.u64();
      f.tx = d.u64();
      f.rx = d.u64();
      f.idle = d.u8() != 0;
      break;
    default:
      throw WireError("unknown frame type");
  }
  if (!d.done()) throw WireError("trailing bytes in frame");
  *consumed = 4u + len;
  return f;
}

}  // namespace motif::net
