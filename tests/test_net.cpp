// The transport-portability contract: the same protocol scenarios — ABD
// read/write flow (including a server crash), TREAS erasure-coded
// round-trips, and the read-lease fast path — run unmodified over the
// deterministic simulator AND over real localhost TCP sockets. The
// backend fixtures are shared with the chaos suite (net_backends.hpp);
// any divergence between the two transports fails here by construction.
#include "net_backends.hpp"
#include "raw_peer.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ares {
namespace {

template <typename Backend>
class TransportSuite : public ::testing::Test {};

using Backends = ::testing::Types<SimBackend, TcpBackend>;
TYPED_TEST_SUITE(TransportSuite, Backends);

// The full ABD read/write flow: writes become visible to every client,
// reads return the latest written value, the history is atomic.
TYPED_TEST(TransportSuite, AbdReadWriteFlow) {
  DeployConfig cfg;
  TypeParam backend(cfg);

  const auto w1 = backend.write(0, kDefaultObject, value_of("alpha"));
  EXPECT_TRUE(w1.is_write);
  EXPECT_GT(w1.tag.z, 0u);

  const auto r1 = backend.read(1, kDefaultObject);
  EXPECT_EQ(to_string(r1.value), "alpha");
  EXPECT_EQ(r1.tag, w1.tag);

  const auto w2 = backend.write(1, kDefaultObject, value_of("beta"));
  EXPECT_TRUE(w1.tag < w2.tag);

  const auto r2 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r2.value), "beta");

  expect_atomic(backend.check());
}

// A minority server crash mid-run: operations keep completing against the
// surviving majority and the history stays atomic.
TYPED_TEST(TransportSuite, AbdSurvivesServerCrash) {
  DeployConfig cfg;
  TypeParam backend(cfg);

  const auto w1 = backend.write(0, kDefaultObject, value_of("before-crash"));
  EXPECT_GT(w1.tag.z, 0u);

  backend.kill_server(2);

  const auto w2 = backend.write(1, kDefaultObject, value_of("after-crash"));
  EXPECT_TRUE(w1.tag < w2.tag);
  const auto r = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r.value), "after-crash");

  expect_atomic(backend.check());
}

// TREAS [5,3] erasure-coded round-trip, including a value big enough that
// fragments dominate framing.
TYPED_TEST(TransportSuite, TreasReadWriteFlow) {
  DeployConfig cfg;
  cfg.servers = 5;
  cfg.protocol = dap::Protocol::kTreas;
  cfg.k = 3;
  TypeParam backend(cfg);

  std::string big(8192, 'x');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 23));
  }
  const auto w1 = backend.write(0, kDefaultObject, value_of(big));
  EXPECT_GT(w1.tag.z, 0u);

  const auto r1 = backend.read(1, kDefaultObject);
  EXPECT_EQ(to_string(r1.value), big);
  EXPECT_EQ(r1.tag, w1.tag);

  const auto w2 = backend.write(1, kDefaultObject, value_of("small"));
  const auto r2 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r2.value), "small");
  EXPECT_EQ(r2.tag, w2.tag);

  expect_atomic(backend.check());
}

// The read-lease fast path: the second read under a live lease is served
// entirely locally (zero rounds, zero messages); a later write invalidates
// the lease and its value is what subsequent reads return.
TYPED_TEST(TransportSuite, LeaseServesSecondReadLocally) {
  DeployConfig cfg;
  cfg.lease = 5'000'000;  // far above both backends' op latencies
  TypeParam backend(cfg);

  // Client 1 writes; client 0 reads (its *first* contact — a write-ack
  // lease would make the writer's own reads local already).
  const auto w1 = backend.write(1, kDefaultObject, value_of("leased"));
  EXPECT_GT(w1.tag.z, 0u);

  const auto r1 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r1.value), "leased");
  EXPECT_GT(r1.metrics.rounds, 0u);  // first read pays the quorum round

  const auto r2 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r2.value), "leased");
  EXPECT_TRUE(r2.metrics.local())
      << "second read under a live lease should cost zero rounds, got "
      << r2.metrics.rounds << " rounds / " << r2.metrics.messages
      << " messages";

  // A write from the other client settles the lease (kInvalidate pushes an
  // invalidation to the holder) — the holder's next read sees the new value.
  const auto w2 = backend.write(1, kDefaultObject, value_of("settled"));
  EXPECT_TRUE(w1.tag < w2.tag);
  const auto r3 = backend.read(0, kDefaultObject);
  EXPECT_EQ(to_string(r3.value), "settled");

  expect_atomic(backend.check());
}

// --- TCP-only coverage -------------------------------------------------------

// Frames really cross sockets (no hidden same-process shortcut), and the
// threaded workload driver produces an atomic history with sane metrics.
TEST(TcpTransportOnly, WorkloadCrossesTheWireAtomically) {
  DeployConfig cfg;
  cfg.clients = 3;
  TcpBackend backend(cfg);

  harness::WorkloadOptions w;
  w.ops_per_client = 20;
  w.write_fraction = 0.4;
  w.value_size = 128;
  w.seed = 11;
  const auto result = net::run_net_workload(backend.cluster(), w);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.ops.size(), 3u * 20u);
  EXPECT_GT(result.mean_latency(false), 0.0);
  EXPECT_GT(result.mean_rounds(true), 0.0);

  EXPECT_GT(backend.cluster().total_frames_sent(), 0u);
  EXPECT_GT(backend.cluster().total_frames_received(), 0u);

  expect_atomic(backend.check());
}

// Batched reads cross the wire as one multi-object quorum round.
TEST(TcpTransportOnly, BatchedReadsOverTcp) {
  net::NetClusterOptions o;
  o.servers = 3;
  o.num_clients = 1;
  o.num_objects = 4;
  o.seed = 3;
  net::NetCluster cluster(o);

  for (ObjectId obj = 0; obj < 4; ++obj) {
    (void)cluster.write(0, obj, value_of("obj" + std::to_string(obj)));
  }
  const auto results = cluster.read_batch(0, {0, 1, 2, 3});
  ASSERT_EQ(results.size(), 4u);
  for (ObjectId obj = 0; obj < 4; ++obj) {
    EXPECT_EQ(to_string(results[obj].value), "obj" + std::to_string(obj));
  }
  std::uint64_t batch_rounds = 0;
  for (const auto& r : results) batch_rounds += r.metrics.rounds;
  // One get-data + one put-back round shared by 4 members, not 4x.
  EXPECT_LE(batch_rounds, 4u);
  expect_atomic(cluster.check_atomicity());
}

/// Entries of a /proc directory (threads of /proc/self/task, open fds of
/// /proc/self/fd).
std::size_t count_entries(const char* dir) {
  const std::filesystem::directory_iterator it(dir);
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(it), std::filesystem::end(it)));
}

// One loop per node: a deployment's only threads are its servers' drivers
// (clients and connections add none), and its fds are its sockets plus
// each node's epoll set and eventfd.
TEST(TcpTransportOnly, OneThreadPerServerNoneForClientsOrConnections) {
  constexpr std::size_t kServers = 5;
  constexpr std::size_t kClients = 2;
  const std::size_t threads0 = count_entries("/proc/self/task");
  const std::size_t fds0 = count_entries("/proc/self/fd");

  net::NetClusterOptions o;
  o.servers = kServers;
  o.num_clients = kClients;
  o.num_objects = 16;
  o.seed = 13;
  net::NetCluster cluster(o);
  harness::WorkloadOptions w;
  w.ops_per_client = 250;
  w.write_fraction = 0.3;
  w.value_size = 64;
  w.seed = 5;
  const auto result = net::run_net_workload(cluster, w);
  ASSERT_EQ(result.ops.size(), kClients * 250);
  EXPECT_EQ(result.failures, 0u);

  EXPECT_LE(count_entries("/proc/self/task"), threads0 + kServers);
  // Per node an epoll set and an eventfd, per server a listener, per
  // client-server connection its two ends.
  EXPECT_LE(count_entries("/proc/self/fd"),
            fds0 + 2 * (kServers + kClients) + kServers +
                2 * kServers * kClients);
  expect_atomic(cluster.check_atomicity());
}

// Poll `cond` every millisecond for up to 5 s.
template <typename Cond>
bool eventually(Cond cond) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A frame too large for the socket buffers is cut short by the sending
// thread's non-blocking write. Its rest stays pinned to that connection
// ahead of every later frame, so the peer gets every frame intact and in
// order.
TEST(TcpTransportOnly, PartialInlineWriteKeepsFrameOrder) {
  RawPeer peer(/*reading=*/false);
  net::NodeRuntime rt(1);
  auto book = std::make_shared<net::AddressBook>();
  book->set(5, net::Endpoint{"127.0.0.1", peer.port()});
  net::TcpTransport tcp(rt, book);
  tcp.start();
  // Nobody waits on this node: its driver completes dials and flushes.
  rt.start_driver();
  const auto send = [&](ObjectId n, std::size_t size) {
    rt.run([&] { tcp.send(1, 5, numbered_body(n, size)); });
  };

  // Frame 0 dials through the queue; once it is out and the queue idles,
  // the connection is a live route.
  send(0, 64);
  ASSERT_TRUE(eventually([&] { return tcp.frames_sent() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr std::size_t kBig = 8u << 20;
  for (ObjectId i = 1; i <= 3; ++i) send(i, 64);
  send(4, kBig);
  for (ObjectId i = 5; i <= 9; ++i) send(i, 64);

  // Frames 1-4 were written on this thread; 1-3 went out whole, the
  // 8 MiB one did not fit the stalled peer's buffers, and 5-9 wait
  // behind its pinned rest.
  EXPECT_EQ(tcp.frames_inline(), 4u);
  EXPECT_EQ(tcp.frames_sent(), 4u);
  EXPECT_GE(tcp.queue_depth(5), 5u);

  peer.start_reading();
  ASSERT_TRUE(peer.wait_for(10, std::chrono::seconds(10)));
  const auto frames = peer.frames();
  ASSERT_EQ(frames.size(), 10u);
  for (ObjectId i = 0; i < 10; ++i) {
    EXPECT_EQ(frame_number(frames[i]), i);
  }
  EXPECT_EQ(peer.corrupt(), 0u);
  EXPECT_TRUE(eventually([&] { return tcp.frames_sent() == 10; }));
  EXPECT_EQ(tcp.frames_dropped(), 0u);
  tcp.stop();
}

// --- NodeRuntime wake-ups ----------------------------------------------------
//
// Sleepers wake only when they have work, so each test checks that a
// sleeper which *does* have work is woken promptly: a sleeper left to its
// idle poll (up to 20 ms) fails these most of the time.

constexpr int kTrials = 10;
constexpr SimDuration kPromptUs = 3'000;

// A sleeper whose predicate run() on another thread satisfies returns
// within a few ms, although it sleeps toward a far timer.
TEST(NodeRuntimeWakeups, SatisfiedPredicateWakesSleeper) {
  net::NodeRuntime rt(1);
  int late = 0;
  for (int t = 0; t < kTrials; ++t) {
    bool flag = false;  // guarded by the node lock
    SimTime set_at = 0;
    rt.run([&] { rt.simulator().schedule_after(10'000'000, [] {}); });
    std::thread setter([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      rt.run([&] {
        flag = true;
        set_at = net::NodeRuntime::unix_now_us();
      });
    });
    ASSERT_TRUE(rt.wait_until([&] { return flag; }, 5'000'000));
    const SimTime woke = net::NodeRuntime::unix_now_us();
    setter.join();
    if (woke - set_at > kPromptUs) ++late;
  }
  EXPECT_LE(late, 2);
}

// A timer run() posts earlier than a client sleeper's planned wake fires
// on time: the sleeper re-plans instead of oversleeping.
TEST(NodeRuntimeWakeups, EarlierTimerWakesClientWaiter) {
  net::NodeRuntime rt(1);
  int late = 0;
  for (int t = 0; t < kTrials; ++t) {
    bool fired = false;  // these three are guarded by the node lock
    SimTime due = 0;
    SimTime fired_at = 0;
    std::thread poster([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      rt.run([&] {
        due = rt.simulator().now() + 2'000;
        rt.simulator().schedule_at(due, [&] {
          fired = true;
          fired_at = net::NodeRuntime::unix_now_us();
        });
      });
    });
    ASSERT_TRUE(rt.wait_until([&] { return fired; }, 5'000'000));
    poster.join();
    if (fired_at - due > kPromptUs) ++late;
  }
  EXPECT_LE(late, 2);
}

// The same for a server's timer driver, which nobody awaits.
TEST(NodeRuntimeWakeups, EarlierTimerWakesDriver) {
  std::mutex m;
  std::condition_variable cv;
  bool fired = false;  // guarded by m
  SimTime due = 0;
  SimTime fired_at = 0;
  net::NodeRuntime rt(1);
  rt.start_driver();
  int late = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    {
      std::lock_guard<std::mutex> lk(m);
      fired = false;
    }
    rt.run([&] {
      due = rt.simulator().now() + 2'000;
      rt.simulator().schedule_at(due, [&] {
        std::lock_guard<std::mutex> lk(m);
        fired = true;
        fired_at = net::NodeRuntime::unix_now_us();
        cv.notify_one();
      });
    });
    std::unique_lock<std::mutex> lk(m);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5), [&] { return fired; }));
    if (fired_at - due > kPromptUs) ++late;
  }
  rt.stop_driver();
  EXPECT_LE(late, 2);
}

// --- frame delivery time -----------------------------------------------------

/// Records the node clock at each numbered frame's delivery. The handler of
/// frame 1 stalls until the test has written frame 2, then a little longer.
class StallingProcess final : public sim::Process {
 public:
  using sim::Process::Process;

  std::atomic<bool> in_first{false};
  std::atomic<bool> second_written{false};
  std::vector<std::pair<ObjectId, SimTime>> stamps;  // node lock

 protected:
  void handle(const sim::Message& msg) override {
    const auto* b = dynamic_cast<const dap::PutBatchReq*>(msg.body.get());
    ASSERT_NE(b, nullptr);
    const ObjectId n = b->items.at(0).object;
    stamps.emplace_back(n, simulator().now());
    if (n != 1) return;
    in_first = true;
    const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!second_written && std::chrono::steady_clock::now() < end) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
};

// Every frame is stamped with the node clock at its own delivery: frame 2,
// written while frame 1's handler stalls, must not inherit the time at
// which the poll that found frame 1 returned. (A loop that advances the
// clock once per poll and then keeps reading the same socket stamps it
// early — an operation's end could then precede its last reply.)
TEST(NodeRuntimeDelivery, FrameStampedAtItsOwnDeliveryTime) {
  net::NodeRuntime rt(1);
  net::TcpTransport::Options topt;
  topt.listen = true;
  net::TcpTransport tcp(rt, std::make_shared<net::AddressBook>(), topt);
  StallingProcess proc(rt.simulator(), tcp, 7);
  tcp.start();
  rt.start_driver();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const auto write_frame = [fd](ObjectId n) {
    const auto bytes = net::wire::encode_frame(9, 7, *numbered_body(n, 64));
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  };

  ASSERT_TRUE(write_frame(1));
  ASSERT_TRUE(eventually([&] { return proc.in_first.load(); }));
  const SimTime t2 = net::NodeRuntime::unix_now_us();
  ASSERT_TRUE(write_frame(2));
  proc.second_written = true;

  std::vector<std::pair<ObjectId, SimTime>> stamps;
  ASSERT_TRUE(eventually([&] {
    rt.run([&] { stamps = proc.stamps; });
    return stamps.size() == 2;
  }));
  EXPECT_EQ(stamps[1].first, 2u);
  EXPECT_GE(stamps[1].second, t2)
      << "frame 2 stamped " << t2 - stamps[1].second
      << " us before it was written";

  ::close(fd);
  rt.stop_driver();
  tcp.stop();
}

}  // namespace
}  // namespace ares
