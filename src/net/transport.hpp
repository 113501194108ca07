// Transport abstraction: how encoded frames move between ranks.
//
// The cluster layer (cluster.hpp) speaks only this interface, so the same
// distributed machine runs over two implementations:
//   * LoopbackHub — all ranks in one process; send() encodes the frame,
//     decodes it back, and delivers it inline on the caller's thread.
//     Deterministic (no I/O threads, no reordering), which is what the
//     net-labelled tests and chaos runs need — and because every frame
//     still passes through the full wire codec, loopback tests exercise
//     the same bytes TCP would carry.
//   * TCP (tcp_transport.cpp) — one process per rank, nonblocking sockets,
//     a dedicated I/O thread per peer, write coalescing, and backpressure
//     via a bounded outbound queue.
//
// Contract shared by both:
//   * construction reserves the rank's address: a TCP rank that accepts
//     (all but the highest) binds and listens there, so a peer may dial it
//     before start(); `peers[rank]` may name port 0 (listen_address()).
//   * set_receiver() before start(); the receiver may be invoked
//     concurrently from multiple threads and must not call back into
//     send() for the same peer while holding locks the sender needs.
//   * send() is thread-safe, may block for backpressure (TCP) and returns
//     the encoded wire size of the frame in bytes.
//   * a link lost outside stop(), before rank 0's Shutdown crossed it, is
//     reported to the receiver once, as a Shutdown frame from the lost
//     rank with a wire size of 0. It never crossed the wire: only rank 0
//     sends a real Shutdown, so a Shutdown from any other rank always
//     means its link is gone.
//   * stop() is idempotent and joins any I/O threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace motif::net {

/// Delivered for every decoded frame: the frame plus its size on the wire
/// (length prefix included), so receivers can keep byte counters without
/// re-encoding.
using RecvFn = std::function<void(Frame&&, std::size_t wire_bytes)>;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::uint32_t rank() const = 0;
  virtual std::uint32_t ranks() const = 0;

  /// Must be called before start(). The callback may run on any thread.
  virtual void set_receiver(RecvFn fn) = 0;

  /// Brings the transport up (TCP: connect all peers + Hello exchange,
  /// within one bring-up deadline). Throws on failure. Loopback start is
  /// a no-op.
  virtual void start() = 0;

  /// The "host:port" this rank's listener is bound to, or "" when it
  /// listens for no one (loopback, or the highest TCP rank).
  virtual std::string listen_address() const { return {}; }

  /// Encodes and ships `f` to rank `to`. Returns the wire size in bytes.
  /// Throws WireError on encode failure, std::runtime_error if the peer is
  /// unreachable or the transport is stopped.
  virtual std::size_t send(std::uint32_t to, const Frame& f) = 0;

  /// Tears down connections and joins I/O threads. Idempotent; frames
  /// arriving after stop() are discarded.
  virtual void stop() = 0;
};

// ---- loopback --------------------------------------------------------------

/// Shared switchboard for an all-in-one-process cluster: one hub, one
/// endpoint per rank. Construct the hub, hand endpoint(r) to rank r's
/// Cluster. The hub must outlive its endpoints' use.
class LoopbackHub {
 public:
  explicit LoopbackHub(std::uint32_t ranks);
  ~LoopbackHub();

  std::uint32_t ranks() const { return static_cast<std::uint32_t>(eps_.size()); }

  /// The transport for rank `r`. Owned by the hub; valid for its lifetime.
  Transport& endpoint(std::uint32_t r);

 private:
  struct Endpoint;
  std::vector<std::unique_ptr<Endpoint>> eps_;
};

// ---- TCP -------------------------------------------------------------------

/// `peers[r]` is rank r's "host:port" listen address; `peers.size()` is the
/// cluster size. Unless it is the highest rank, the transport binds and
/// listens on peers[rank] when constructed (port 0: any free port). Its
/// start() dials every lower rank (with retries, so start order doesn't
/// matter) and accepts connections from higher ranks. A rank dials only
/// lower ranks, so ranks built in rank order can fill in their peer list
/// from the listen_address() of the ranks before them.
std::unique_ptr<Transport> make_tcp_transport(std::uint32_t rank,
                                              std::vector<std::string> peers);

/// Binds `n` ephemeral localhost ports, records them, closes the sockets,
/// and returns the port numbers. Racy by nature: another process can take
/// a port before the transport binds it. Binding port 0 in the transport
/// has no such race; perfbench is the last caller of this function.
std::vector<std::uint16_t> pick_free_ports(std::size_t n);

}  // namespace motif::net
