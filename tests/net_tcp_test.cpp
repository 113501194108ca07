// TCP transport tests, all in-process: two ranks on real localhost
// sockets (one thread per rank standing in for one OS process per rank —
// same code path the 2-process tools/net_launch.sh smoke exercises), a
// raw transport ping-pong below the cluster layer, the
// backpressure/shutdown edges, and a lost link ending every wait on it.
// Every rank binds port 0, so concurrent test processes never share one.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "motifs/dist_tree_reduce.hpp"
#include "net/cluster.hpp"
#include "net/transport.hpp"

namespace n = motif::net;
namespace rt = motif::rt;
using motif::term::Term;
using namespace std::chrono_literals;

namespace {

/// Transports of a localhost cluster, built in rank order: each rank
/// binds port 0, and the ranks after it dial the port it got.
std::vector<std::unique_ptr<n::Transport>> localhost_transports(
    std::uint32_t ranks) {
  std::vector<std::string> peers(ranks, "127.0.0.1:0");
  std::vector<std::unique_ptr<n::Transport>> ts;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    ts.push_back(n::make_tcp_transport(r, peers));
    peers[r] = ts.back()->listen_address();
  }
  return ts;
}

/// Joins `t` once `done` is ready. A thread still running after `bound`
/// ends the process with a failure: it blocks on objects this test is
/// about to destroy, so it can be neither joined nor left behind.
void join_within(std::thread& t, std::future<void> done,
                 std::chrono::seconds bound, const char* what) {
  if (done.wait_for(bound) != std::future_status::ready) {
    std::fprintf(stderr, "FAILED: %s did not end within %lld s\n", what,
                 static_cast<long long>(bound.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  t.join();
}

/// Two DistTreeReduce2 generations on a fresh two-rank localhost cluster,
/// rank 1 serving on its own thread; returns rank 0's counters.
rt::NetStats reduce_over_two_ranks() {
  auto ts = localhost_transports(2);

  // Rank 1: the follower "process". Builds its own cluster and motif,
  // then sits in serve() until rank 0's Shutdown arrives.
  std::promise<void> served;
  std::thread follower([&] {
    n::ClusterConfig cfg;
    cfg.nodes_per_rank = 2;
    cfg.machine.seed = 0x5EED1ull;
    n::Cluster c(*ts[1], cfg);
    motif::DistTreeReduce2 tr(c);
    c.start();
    c.serve();
    served.set_value();
  });

  rt::NetStats stats;
  {
    n::ClusterConfig cfg;
    cfg.nodes_per_rank = 2;
    cfg.machine.seed = 0x5EED0ull;
    n::Cluster c(*ts[0], cfg);
    motif::DistTreeReduce2 tr(c);
    c.start();

    const auto res = tr.run(6, 42, 60s);
    EXPECT_TRUE(res.ok) << res.outcome.to_string();
    EXPECT_EQ(res.value, res.expected);

    // Repeated generations over the same connections.
    const auto res2 = tr.run(5, 7, 60s);
    EXPECT_TRUE(res2.ok) << res2.outcome.to_string();
    EXPECT_EQ(res2.value, res2.expected);

    stats = c.net_stats();
    c.shutdown();
  }
  join_within(follower, served.get_future(), 10s, "rank 1's serve()");
  return stats;
}

}  // namespace

TEST(NetTcp, RawPingPong) {
  auto ts = localhost_transports(2);
  auto& t0 = ts[0];
  auto& t1 = ts[1];

  std::mutex m;
  std::condition_variable cv;
  int pongs = 0;
  std::size_t pong_bytes = 0;

  // Both receivers ignore the Shutdown notice of a link lost at stop().
  t0->set_receiver([&](n::Frame&& f, std::size_t wire_bytes) {
    if (f.type != n::FrameType::Post) return;
    EXPECT_EQ(f.src_rank, 1u);
    EXPECT_EQ(f.payload.int_value(), 2 * 21);
    std::lock_guard<std::mutex> lk(m);
    ++pongs;
    pong_bytes = wire_bytes;
    cv.notify_all();
  });
  // Rank 1 echoes each ping back doubled.
  t1->set_receiver([&](n::Frame&& f, std::size_t) {
    if (f.type != n::FrameType::Post) return;
    n::Frame reply;
    reply.type = n::FrameType::Post;
    reply.src_rank = 1;
    reply.payload = Term::integer(2 * f.payload.int_value());
    t1->send(0, reply);
  });

  // Start order must not matter: dial retries cover the race.
  std::thread starter([&] { t1->start(); });
  t0->start();
  starter.join();

  n::Frame ping;
  ping.type = n::FrameType::Post;
  ping.src_rank = 0;
  ping.payload = Term::integer(21);
  const std::size_t sent = t0->send(1, ping);
  EXPECT_GT(sent, 0u);

  {
    std::unique_lock<std::mutex> lk(m);
    ASSERT_TRUE(cv.wait_for(lk, 10s, [&] { return pongs == 1; }));
    EXPECT_GT(pong_bytes, 0u);
  }

  t0->stop();
  t1->stop();
}

TEST(NetTcp, ManyFramesSurviveCoalescingAndBackpressure) {
  auto ts = localhost_transports(2);
  auto& t0 = ts[0];
  auto& t1 = ts[1];

  constexpr int kFrames = 5000;
  std::mutex m;
  std::condition_variable cv;
  int got = 0;
  long long sum = 0;
  t0->set_receiver([](n::Frame&&, std::size_t) {});
  t1->set_receiver([&](n::Frame&& f, std::size_t) {
    if (f.type != n::FrameType::Post) return;
    std::lock_guard<std::mutex> lk(m);
    ++got;
    sum += f.payload.int_value();
    cv.notify_all();
  });

  std::thread starter([&] { t1->start(); });
  t0->start();
  starter.join();

  long long expect = 0;
  for (int i = 0; i < kFrames; ++i) {
    n::Frame f;
    f.type = n::FrameType::Post;
    f.src_rank = 0;
    f.payload = Term::integer(i);
    t0->send(1, f);  // blocks on the bounded queue rather than dropping
    expect += i;
  }
  {
    std::unique_lock<std::mutex> lk(m);
    ASSERT_TRUE(cv.wait_for(lk, 30s, [&] { return got == kFrames; }));
  }
  EXPECT_EQ(sum, expect);

  t0->stop();
  t1->stop();
}

TEST(NetTcp, SendAfterStopThrows) {
  auto ts = localhost_transports(2);
  auto& t0 = ts[0];
  auto& t1 = ts[1];
  t0->set_receiver([](n::Frame&&, std::size_t) {});
  t1->set_receiver([](n::Frame&&, std::size_t) {});
  std::thread starter([&] { t1->start(); });
  t0->start();
  starter.join();
  t0->stop();
  t0->stop();  // idempotent

  n::Frame f;
  f.type = n::FrameType::Post;
  f.payload = Term::integer(1);
  EXPECT_THROW(t0->send(1, f), std::runtime_error);
  t1->stop();
}

TEST(NetTcp, StrayConnectionDoesNotAbortStartup) {
  auto ts = localhost_transports(2);
  auto& t0 = ts[0];
  auto& t1 = ts[1];

  std::mutex m;
  std::condition_variable cv;
  int got = 0;
  t0->set_receiver([&](n::Frame&& f, std::size_t) {
    if (f.type != n::FrameType::Post) return;
    std::lock_guard<std::mutex> lk(m);
    ++got;
    cv.notify_all();
  });
  t1->set_receiver([](n::Frame&&, std::size_t) {});

  // A port scanner / health checker hitting rank 0's listener during
  // bring-up: connects first, writes bytes that can never be a Hello
  // (length prefix far over kMaxFrameBytes), hangs up. The listener is
  // bound at construction, so the stray is queued before rank 1 dials
  // and accept_one() deterministically sees the garbage first. The mesh
  // must still form around it.
  const std::string addr = t0->listen_address();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(
      std::stoi(addr.substr(addr.rfind(':') + 1))));
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  const std::uint8_t junk[8] = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4};
  ::send(fd, junk, sizeof(junk), MSG_NOSIGNAL);
  ::close(fd);

  std::thread starter([&] { t1->start(); });
  t0->start();
  starter.join();

  n::Frame f;
  f.type = n::FrameType::Post;
  f.src_rank = 1;
  f.payload = Term::integer(7);
  t1->send(0, f);
  {
    std::unique_lock<std::mutex> lk(m);
    ASSERT_TRUE(cv.wait_for(lk, 30s, [&] { return got == 1; }));
  }
  t0->stop();
  t1->stop();
}

TEST(NetTcp, DistTreeReduce2OverRealSockets) {
  const rt::NetStats stats = reduce_over_two_ranks();
  EXPECT_GT(stats.tx_frames, 0u);
  EXPECT_GT(stats.rx_frames, 0u);
  EXPECT_GT(stats.tx_bytes, stats.tx_frames);  // every frame > 1 byte
  EXPECT_GT(stats.ctl_frames, 0u);
}

TEST(NetTcp, OrderlyShutdownReportsNoLostLink) {
  // Rank 0's shutdown() flushes its Shutdown broadcast while the follower
  // obeys it and closes: that close is orderly, not a lost link.
  testing::internal::CaptureStderr();
  reduce_over_two_ranks();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("peer closed connection"), std::string::npos) << err;
}

TEST(NetTcp, TwoClustersAtOnce) {
  // Two clusters in one process, each on the ports its own ranks bound:
  // neither can dial the other's rank 0, and each result is exact.
  std::thread other([] { reduce_over_two_ranks(); });
  reduce_over_two_ranks();
  other.join();
}

TEST(NetTcp, ServeReturnsWhenRankZeroIsLost) {
  auto ts = localhost_transports(2);
  ts[0]->set_receiver([](n::Frame&&, std::size_t) {});
  std::promise<void> served;
  std::thread follower([&] {
    n::Cluster c(*ts[1], n::ClusterConfig{});
    c.start();
    c.serve();
    served.set_value();
  });
  ts[0]->start();
  // Rank 0 goes away without a Shutdown, as a crashed process would.
  ts[0]->stop();
  join_within(follower, served.get_future(), 5s,
              "serve() under a lost rank 0");
}

TEST(NetTcp, LostFollowerEndsTheRunAsNodeLost) {
  auto ts = localhost_transports(2);
  // Rank 1 is a bare transport that swallows every frame, so rank 0's
  // run cannot finish; then its link drops mid-run.
  ts[1]->set_receiver([](n::Frame&&, std::size_t) {});
  n::ClusterConfig cfg;
  cfg.nodes_per_rank = 2;
  n::Cluster c(*ts[0], cfg);
  motif::DistTreeReduce2 tr(c);
  std::thread starter([&] { ts[1]->start(); });
  c.start();
  starter.join();

  std::thread dropper([&] {
    std::this_thread::sleep_for(200ms);
    ts[1]->stop();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = tr.run(6, 42, 60s);
  const auto took = std::chrono::steady_clock::now() - t0;
  dropper.join();
  EXPECT_EQ(res.outcome.status, rt::RunStatus::NodeLost)
      << res.outcome.to_string();
  EXPECT_LT(took, 10s);  // the lost link, not the 60 s deadline, ended it
}
