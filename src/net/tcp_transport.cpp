// TCP transport: one process per rank, full mesh over localhost or a LAN.
//
// Connection setup is deterministic regardless of start order: every rank
// but the highest binds and listens on its peers[rank] address when it is
// constructed (port 0 takes any free port). start() *dials* every lower
// rank (retrying while the peer's process comes up) and *accepts* from
// every higher rank, all within one bring-up deadline; the first frame on
// each connection is a Hello carrying the dialer's rank, so accepted
// sockets are attributed without trusting addresses. After the mesh is up
// each socket goes nonblocking and gets a dedicated I/O thread:
//
//   * writes — send() appends the encoded frame to a bounded outbound
//     queue (backpressure: producers block on a condvar when the queue is
//     full) and pokes the I/O thread through a self-pipe; the I/O thread
//     coalesces everything queued into one buffer per wakeup so a burst of
//     small posts becomes a single write() (we set TCP_NODELAY and batch
//     ourselves instead of letting Nagle guess).
//   * reads — a reassembly buffer accumulates socket bytes; complete
//     length-prefixed frames are peeled off and handed to the receiver on
//     the I/O thread. decode_frame distinguishes "incomplete, read more"
//     from corruption, so short reads are handled by construction.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "net/transport.hpp"

namespace motif::net {

namespace {

constexpr std::size_t kMaxOutboundFrames = 1024;
constexpr std::size_t kMaxOutboundBytes = 4u << 20;
constexpr std::size_t kCoalesceBytes = 256u << 10;
/// The whole of start(): every dial retry and accept ends by then.
constexpr std::chrono::seconds kBringUp{30};
/// Bounds one handshake read or write: a silent stray cannot hold start().
constexpr timeval kHandshakeTimeout{5, 0};

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

struct HostPort {
  std::string host;
  std::uint16_t port;
};

HostPort parse_host_port(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon + 1 == s.size()) {
    throw std::runtime_error("bad peer address (want host:port): " + s);
  }
  const int port = std::stoi(s.substr(colon + 1));
  if (port < 0 || port > 0xFFFF) {
    throw std::runtime_error("bad peer port: " + s);
  }
  return {s.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// The IPv4 address of `hp`, or nullopt when its host does not resolve.
std::optional<sockaddr_in> resolve(const HostPort& hp) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(hp.host.c_str(), nullptr, &hints, &res) != 0) return {};
  sockaddr_in addr = *reinterpret_cast<sockaddr_in*>(res->ai_addr);
  ::freeaddrinfo(res);
  addr.sin_port = htons(hp.port);
  return addr;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      sys_fail("send");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void read_exact(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      sys_fail("read");
    }
    if (r == 0) throw std::runtime_error("peer closed during handshake");
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

/// Reads exactly one frame from a (still-blocking) handshake socket.
Frame read_frame_blocking(int fd) {
  std::uint8_t lenb[4];
  read_exact(fd, lenb, 4);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(lenb[i]) << (8 * i);
  if (len > kMaxFrameBytes) throw WireError("handshake frame too large");
  std::vector<std::uint8_t> buf(4u + len);
  std::memcpy(buf.data(), lenb, 4);
  read_exact(fd, buf.data() + 4, len);
  std::size_t consumed = 0;
  std::optional<Frame> f = decode_frame(buf.data(), buf.size(), &consumed);
  if (!f) throw WireError("short handshake frame");
  return std::move(*f);
}

class TcpTransport final : public Transport {
 public:
  TcpTransport(std::uint32_t rank, std::vector<std::string> peers)
      : rank_(rank), peers_(std::move(peers)) {
    if (rank_ >= peers_.size()) {
      throw std::runtime_error("tcp transport: rank outside peer list");
    }
    conns_.resize(peers_.size());
    if (rank_ + 1 < peers_.size()) open_listener();
  }

  ~TcpTransport() override { stop(); }

  std::uint32_t rank() const override { return rank_; }
  std::uint32_t ranks() const override {
    return static_cast<std::uint32_t>(peers_.size());
  }

  void set_receiver(RecvFn fn) override { recv_ = std::move(fn); }

  std::string listen_address() const override { return address_; }

  void start() override {
    const auto deadline = std::chrono::steady_clock::now() + kBringUp;
    for (std::uint32_t r = 0; r < rank_; ++r) dial(r, deadline);
    for (std::uint32_t r = rank_ + 1; r < ranks(); ++r) accept_one(deadline);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Mesh complete: go nonblocking and start the I/O threads.
    for (auto& c : conns_) {
      if (!c) continue;
      set_nonblocking(c->fd);
      if (::pipe(c->wake) < 0) sys_fail("pipe");
      set_nonblocking(c->wake[0]);
      set_nonblocking(c->wake[1]);
      Conn* conn = c.get();
      c->io = std::thread([this, conn] { io_loop(*conn); });
    }
  }

  std::size_t send(std::uint32_t to, const Frame& f) override {
    if (to == rank_ || to >= conns_.size() || !conns_[to]) {
      throw std::runtime_error("tcp transport: no connection to rank " +
                               std::to_string(to));
    }
    std::vector<std::uint8_t> bytes = encode_frame(f);
    const std::size_t wire = bytes.size();
    Conn& c = *conns_[to];
    if (f.type == FrameType::Shutdown) {
      c.said_bye.store(true, std::memory_order_release);
    }
    {
      std::unique_lock<std::mutex> lk(c.mu);
      c.can_send.wait(lk, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               c.dead.load(std::memory_order_acquire) ||
               (c.outq.size() < kMaxOutboundFrames &&
                c.outq_bytes < kMaxOutboundBytes);
      });
      if (stopping_.load(std::memory_order_acquire)) {
        throw std::runtime_error("tcp transport stopped");
      }
      if (c.dead.load(std::memory_order_acquire)) {
        throw std::runtime_error("tcp transport: connection to rank " +
                                 std::to_string(to) + " lost");
      }
      c.outq_bytes += bytes.size();
      c.enq_bytes += bytes.size();
      c.outq.push_back(std::move(bytes));
    }
    poke(c);
    return wire;
  }

  void stop() override {
    bool expected = false;
    if (!stop_entered_.compare_exchange_strong(expected, true)) return;
    // Give queued frames — typically a final Shutdown broadcast — a
    // bounded chance to reach the wire while the I/O threads still run.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (auto& c : conns_) {
      if (!c || c->dead.load(std::memory_order_acquire)) continue;
      for (;;) {
        std::uint64_t enq = 0;
        {
          std::lock_guard<std::mutex> lk(c->mu);
          enq = c->enq_bytes;
        }
        if (c->sent_bytes.load(std::memory_order_acquire) >= enq) break;
        if (std::chrono::steady_clock::now() >= deadline) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    stopping_.store(true, std::memory_order_release);
    for (auto& c : conns_) {
      if (!c) continue;
      c->can_send.notify_all();
      poke(*c);
    }
    for (auto& c : conns_) {
      if (c && c->io.joinable()) c->io.join();
    }
    for (auto& c : conns_) {
      if (!c) continue;
      if (c->fd >= 0) ::close(c->fd);
      if (c->wake[0] >= 0) ::close(c->wake[0]);
      if (c->wake[1] >= 0) ::close(c->wake[1]);
      c->fd = c->wake[0] = c->wake[1] = -1;
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

 private:
  struct Conn {
    int fd = -1;
    int wake[2] = {-1, -1};
    std::uint32_t peer = 0;
    std::thread io;
    std::mutex mu;
    std::condition_variable can_send;
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t outq_bytes = 0;
    std::uint64_t enq_bytes = 0;  // under mu: total bytes ever enqueued
    std::atomic<std::uint64_t> sent_bytes{0};  // written to the socket
    std::atomic<bool> dead{false};  // peer lost; senders must not block
    std::atomic<bool> said_bye{false};  // a Shutdown crossed: close is orderly
  };

  static void poke(Conn& c) {
    if (c.wake[1] < 0) return;
    const char b = 1;
    [[maybe_unused]] ssize_t w = ::write(c.wake[1], &b, 1);  // EAGAIN fine:
    // a full pipe already guarantees a pending wakeup.
  }

  void open_listener() {
    const HostPort hp = parse_host_port(peers_[rank_]);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    // Bind the configured interface, not INADDR_ANY: a localhost mesh
    // should not be reachable (or disturbable) from the LAN at all.
    // Fall back to any-interface only if the host doesn't resolve here.
    sockaddr_in addr{};
    addr.sin_family = AF_INET;  // sin_addr zero: INADDR_ANY
    addr.sin_port = htons(hp.port);
    if (const auto a = resolve(hp)) addr = *a;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(fd, static_cast<int>(ranks())) < 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0 ||
        ::fcntl(fd, F_SETFL, O_NONBLOCK) < 0) {  // accept_one() polls it
      ::close(fd);  // the constructor throws, so no destructor closes it
      sys_fail("listen on " + peers_[rank_]);
    }
    listen_fd_ = fd;
    address_ = hp.host + ":" + std::to_string(ntohs(addr.sin_port));
  }

  void dial(std::uint32_t r, std::chrono::steady_clock::time_point deadline) {
    const std::optional<sockaddr_in> addr =
        resolve(parse_host_port(peers_[r]));
    if (!addr) throw std::runtime_error("cannot resolve peer " + peers_[r]);
    int fd = -1;
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) sys_fail("socket");
      // Bounds connect() on a full backlog, and the Hello write below.
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kHandshakeTimeout,
                   sizeof(kHandshakeTimeout));
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&*addr),
                    sizeof(*addr)) == 0) {
        break;
      }
      ::close(fd);
      fd = -1;
      constexpr auto kRetry = std::chrono::milliseconds(50);
      if (std::chrono::steady_clock::now() + kRetry >= deadline) break;
      std::this_thread::sleep_for(kRetry);
    }
    if (fd < 0) {
      throw std::runtime_error("cannot connect to rank " + std::to_string(r) +
                               " at " + peers_[r] + " within " +
                               std::to_string(kBringUp.count()) + " s");
    }
    set_nodelay(fd);
    Frame hello;
    hello.type = FrameType::Hello;
    hello.src_rank = rank_;
    const std::vector<std::uint8_t> bytes = encode_frame(hello);
    write_all(fd, bytes.data(), bytes.size());
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->peer = r;
    conns_[r] = std::move(c);
  }

  /// Accepts connections until one presents a valid Hello from a
  /// not-yet-connected higher rank, or throws at `deadline`. A stray
  /// connection (port scanner, health checker, LAN noise) is closed and
  /// ignored rather than aborting cluster bring-up, and a receive timeout
  /// on the handshake socket keeps a silent one from holding start().
  void accept_one(std::chrono::steady_clock::time_point deadline) {
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        throw std::runtime_error(
            "tcp transport: rank " + std::to_string(rank_) +
            ": not every higher rank connected within " +
            std::to_string(kBringUp.count()) + " s");
      }
      pollfd p{listen_fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno != EINTR) sys_fail("poll");
      if (ready <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        sys_fail("accept");
      }
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &kHandshakeTimeout,
                   sizeof(kHandshakeTimeout));
      Frame hello;
      try {
        hello = read_frame_blocking(fd);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "[net] rank %u: dropping stray connection (%s)\n", rank_,
                     e.what());
        ::close(fd);
        continue;
      }
      if (hello.type != FrameType::Hello || hello.src_rank <= rank_ ||
          hello.src_rank >= ranks() || conns_[hello.src_rank]) {
        std::fprintf(stderr,
                     "[net] rank %u: dropping connection with bad Hello\n",
                     rank_);
        ::close(fd);
        continue;
      }
      set_nodelay(fd);
      auto c = std::make_unique<Conn>();
      c->fd = fd;
      c->peer = hello.src_rank;
      conns_[hello.src_rank] = std::move(c);
      return;
    }
  }

  void io_loop(Conn& c) {
    std::vector<std::uint8_t> inbuf;
    std::size_t inpos = 0;  // decoded-up-to offset into inbuf
    std::vector<std::uint8_t> wbuf;
    std::size_t wpos = 0;

    while (!stopping_.load(std::memory_order_acquire)) {
      // Refill the write buffer by coalescing queued frames.
      if (wpos == wbuf.size()) {
        wbuf.clear();
        wpos = 0;
        std::lock_guard<std::mutex> lk(c.mu);
        while (!c.outq.empty() && wbuf.size() < kCoalesceBytes) {
          std::vector<std::uint8_t>& f = c.outq.front();
          wbuf.insert(wbuf.end(), f.begin(), f.end());
          c.outq_bytes -= f.size();
          c.outq.pop_front();
        }
        if (!c.outq.empty() || !wbuf.empty()) c.can_send.notify_all();
      }

      pollfd fds[2];
      fds[0] = {c.fd, POLLIN, 0};
      if (wpos < wbuf.size()) fds[0].events |= POLLOUT;
      fds[1] = {c.wake[0], POLLIN, 0};
      if (::poll(fds, 2, -1) < 0) {
        if (errno == EINTR) continue;
        io_error(c, "poll");
        return;
      }

      if (fds[1].revents & POLLIN) {  // drain the wake pipe
        char sink[64];
        while (::read(c.wake[0], sink, sizeof(sink)) > 0) {
        }
      }

      if (fds[0].revents & (POLLIN | POLLERR | POLLHUP)) {
        if (!drain_reads(c, inbuf, inpos)) return;
      }

      if ((fds[0].revents & POLLOUT) && wpos < wbuf.size()) {
        const ssize_t w = ::send(c.fd, wbuf.data() + wpos, wbuf.size() - wpos,
                                 MSG_NOSIGNAL);
        if (w > 0) {
          wpos += static_cast<std::size_t>(w);
          c.sent_bytes.fetch_add(static_cast<std::uint64_t>(w),
                                 std::memory_order_release);
        } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          io_error(c, "send");
          return;
        }
      }
    }
  }

  /// Reads everything currently available, peels off complete frames.
  /// Returns false when the connection is finished (closed or corrupt).
  bool drain_reads(Conn& c, std::vector<std::uint8_t>& inbuf,
                   std::size_t& inpos) {
    char tmp[64 * 1024];
    for (;;) {
      const ssize_t r = ::read(c.fd, tmp, sizeof(tmp));
      if (r > 0) {
        inbuf.insert(inbuf.end(), tmp, tmp + r);
        continue;
      }
      if (r == 0) {
        io_error(c, "peer closed connection");
        return false;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      io_error(c, "read");
      return false;
    }

    try {
      for (;;) {
        std::size_t consumed = 0;
        std::optional<Frame> f =
            decode_frame(inbuf.data() + inpos, inbuf.size() - inpos, &consumed);
        if (!f) break;
        inpos += consumed;
        if (f->type == FrameType::Shutdown) {
          c.said_bye.store(true, std::memory_order_release);
        }
        if (recv_) recv_(std::move(*f), consumed);
      }
    } catch (const WireError& e) {
      io_error(c, std::string("corrupt frame: ") + e.what());
      return false;
    } catch (const std::exception& e) {
      // The receiver threw (e.g. Cluster::on_frame forwarding to a third
      // rank whose connection died). Letting it escape would terminate
      // the process from this I/O thread; frames past inpos would also
      // go unprocessed, so fail the link and let the cluster layer
      // surface it as a lost node.
      io_error(c, std::string("receiver failed: ") + e.what());
      return false;
    }
    // Compact once the decoded prefix dominates the buffer.
    if (inpos > (64u << 10) && inpos * 2 > inbuf.size()) {
      inbuf.erase(inbuf.begin(),
                  inbuf.begin() + static_cast<std::ptrdiff_t>(inpos));
      inpos = 0;
    }
    return true;
  }

  /// Fails `c`'s link. A close after rank 0's Shutdown crossed the link
  /// is orderly (the follower obeys it while rank 0 still flushes), and
  /// so is every close once stop() has begun; only a failure before both
  /// is reported and noticed as a lost link.
  void io_error(Conn& c, const std::string& what) {
    const bool lost = !stop_entered_.load(std::memory_order_acquire) &&
                      !c.said_bye.load(std::memory_order_acquire);
    if (lost) {
      std::fprintf(stderr, "[net] rank %u <-> rank %u: %s\n", rank_, c.peer,
                   what.c_str());
    }
    // Mark the peer lost and unblock senders: further send() calls to it
    // throw instead of waiting on a queue nothing will ever drain.
    c.dead.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(c.mu);
      c.can_send.notify_all();
    }
    if (lost && recv_) {  // the lost-link notice of transport.hpp
      Frame notice;
      notice.type = FrameType::Shutdown;
      notice.src_rank = c.peer;
      try {
        recv_(std::move(notice), 0);
      } catch (const std::exception& e) {  // must not end this I/O thread
        std::fprintf(stderr, "[net] rank %u: lost-link receiver failed: %s\n",
                     rank_, e.what());
      }
    }
  }

  std::uint32_t rank_;
  std::vector<std::string> peers_;
  RecvFn recv_;
  int listen_fd_ = -1;
  std::string address_;  // listen_fd_'s "host:port"; "" without a listener
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<bool> stop_entered_{false};  // stop() began: closes are orderly
  std::atomic<bool> stopping_{false};       // the flush is over: I/O exits
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(std::uint32_t rank,
                                              std::vector<std::string> peers) {
  return std::make_unique<TcpTransport>(rank, std::move(peers));
}

std::vector<std::uint16_t> pick_free_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      sys_fail("bind ephemeral");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      ::close(fd);
      sys_fail("getsockname");
    }
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);  // hold open so later picks can't collide
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

}  // namespace motif::net
