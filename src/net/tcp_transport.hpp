// TcpTransport: the sim::Transport backend over real sockets. The exact
// client/server code that runs on the deterministic simulator crosses a
// wire here as length-prefixed binary frames (see net/wire.hpp), with the
// asynchronous-network model preserved:
//
//   * Reliable-until-crash channels: frames to a reachable peer arrive in
//     order over one TCP connection; frames to a dead or unreachable peer
//     are silently dropped after a bounded dial effort — to the sender,
//     slow and dead stay indistinguishable, exactly the model the
//     protocols assume.
//   * No threads of its own: the listener and every connection sit in the
//     node's NodeRuntime epoll set, and all transport state is guarded by
//     the node lock — send() runs in protocol code, the readiness handlers
//     on whichever thread polls the node.
//   * Writes on the sending thread: a frame goes onto the socket inside
//     send() with one non-blocking write when the destination has nothing
//     queued and a live connection exists. A per-destination queue holds
//     frames only while a dial (a non-blocking connect, retried on the
//     node's timers) is in flight or a full socket buffer waits for
//     EPOLLOUT; the queue then goes out in one writev. A SIGKILLed server
//     stalls only its own queue while the rest of a quorum fan-out
//     proceeds at full speed.
//   * Learned routes: listeners never dial. A server answers a client over
//     the connection the client dialed in on — the frame header's `from`
//     binds the connection to a peer id on first receipt. Only processes
//     published in the AddressBook (servers) are ever dialed.
//   * Delivery: a readable connection is read into its own buffer, which
//     may hold many frames; each is delivered with the node's clock
//     advanced to its own delivery time.
//
// atomic_broadcast degrades to per-destination sends: real crash-stop
// networks have no all-or-none md-primitive, so protocols that *depend* on
// that guarantee (the Section-5 direct state transfer) are verified on the
// sim backend (see sim::Transport).
//
// Lifetime: stop() (idempotent, called by the destructor) closes every
// socket. Processes register before start() and must stay registered and
// alive until stop() returns.
#pragma once

#include "common/types.hpp"
#include "net/chaos.hpp"
#include "net/failure_detector.hpp"
#include "net/runtime.hpp"
#include "sim/transport.hpp"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace ares::net {

/// The sleep before dial retry `attempt` (1-based): `base_ms` scaled by a
/// deterministic factor in [1 - pct/100, 1 + pct/100] drawn from a
/// SplitMix64 hash of (salt, attempt), floored at 1 ms. Deterministic so
/// tests can assert the spread; different salts (per transport, per
/// destination) de-synchronize real senders.
[[nodiscard]] int jittered_dial_delay_ms(int base_ms, int jitter_pct,
                                         std::uint64_t salt, int attempt);

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Shared ProcessId -> Endpoint directory (the deployment's static
/// membership knowledge). Servers publish themselves after binding;
/// clients are absent — they are only ever reached over learned routes.
class AddressBook {
 public:
  void set(ProcessId id, Endpoint ep);
  [[nodiscard]] std::optional<Endpoint> find(ProcessId id) const;

 private:
  mutable std::mutex mu_;
  std::map<ProcessId, Endpoint> map_;
};

class TcpTransport final : public sim::Transport {
 public:
  struct Options {
    /// Servers listen; pure clients only dial.
    bool listen = false;
    std::string listen_host = "127.0.0.1";
    std::uint16_t listen_port = 0;  // 0 = ephemeral, see port()

    /// Dial budget for a destination never connected before (the startup
    /// race) vs. one whose established connection died (it probably
    /// crashed).
    int dial_attempts = 40;
    int redial_attempts = 2;
    int dial_retry_ms = 50;

    /// ± percent jitter on every dial retry delay (see
    /// jittered_dial_delay_ms): a fixed delay synchronizes every client
    /// into a reconnect stampede after a server restart.
    int dial_retry_jitter_pct = 50;

    /// After a failed dial effort, drop frames to that destination without
    /// re-dialing for this long.
    int down_ms = 2000;

    /// Per-destination queue bound: beyond it the OLDEST frame is dropped,
    /// so a dead or partitioned peer's queue cannot grow without limit —
    /// stale rounds lose to the live operation's traffic, and the
    /// protocols tolerate loss by construction.
    std::size_t max_queue_frames = 512;

    /// How many times a frame whose write failed (reset connection) is
    /// re-offered to a freshly dialed connection before being dropped.
    int write_replay_attempts = 2;
  };

  TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book);
  TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book,
               Options opt);
  ~TcpTransport() override;

  /// Bind + listen (if configured) and join the node's loop. Must be called
  /// before the first frame can flow.
  void start();

  /// Close every socket and cancel pending dials. Idempotent.
  void stop();

  /// Actual listening port (after start() with listen=true).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Install a failure detector: send() fast-fails frames to suspected
  /// peers, receipts feed back into it, and the dial path shrinks its
  /// budget for suspects. Call before start().
  void set_failure_detector(std::shared_ptr<FailureDetector> fd) {
    detector_ = std::move(fd);
  }

  /// Install the deployment's shared fault script: every write attempt
  /// consults sock_fault() for torn-frame / connection-reset injection.
  /// Call before start().
  void set_chaos(std::shared_ptr<ChaosController> chaos) {
    chaos_ = std::move(chaos);
  }

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_received_;
  }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_;
  }
  /// The subset of frames_dropped() the queue bound dropped.
  [[nodiscard]] std::uint64_t frames_dropped_overflow() const {
    return frames_dropped_overflow_;
  }
  /// Frames rewritten onto a freshly dialed connection after a write
  /// failure (reconnect-and-replay).
  [[nodiscard]] std::uint64_t frames_replayed() const {
    return frames_replayed_;
  }
  /// Frames whose first write attempt ran inside send(), on the sending
  /// thread, instead of after waiting in the queue.
  [[nodiscard]] std::uint64_t frames_inline() const { return frames_inline_; }

  /// Current depth of the queue toward `dest`, counting a partially
  /// written frame whose rest awaits EPOLLOUT. Callable from any thread.
  [[nodiscard]] std::size_t queue_depth(ProcessId dest) const;

  // --- sim::Transport (called under the node lock) ---------------------------
  void register_process(sim::Process& p) override;
  void unregister_process(ProcessId id) override;
  void send(ProcessId from, ProcessId to, sim::BodyPtr body) override;
  void atomic_broadcast(ProcessId from, std::vector<ProcessId> dests,
                        sim::BodyPtr body) override;

 private:
  struct Outbox;

  /// One TCP connection, guarded by the node lock. The fd closes when the
  /// last reference drops; kill() takes it out of the epoll set first.
  struct Sock {
    explicit Sock(int fd) : fd(fd) {}
    ~Sock();
    Sock(const Sock&) = delete;
    Sock& operator=(const Sock&) = delete;

    const int fd;
    std::uint64_t token = 0;  // NodeRuntime::watch token
    bool want_out = false;    // polled for EPOLLOUT
    bool dead = false;
    /// Unwritten tail of a frame cut short, and the queue it came from:
    /// finished on this connection before anything else, or dropped with
    /// it — never replayed elsewhere.
    std::vector<std::uint8_t> rest;
    Outbox* rest_of = nullptr;
    /// Received bytes: in[0, in_len) is the start of the next frame.
    std::vector<std::uint8_t> in;
    std::size_t in_len = 0;
  };

  /// A queued frame, with the number of write attempts it has already used
  /// (a failed write counts against the replay budget) and the chaos draw
  /// for its next attempt, once made.
  struct Queued {
    std::vector<std::uint8_t> frame;
    int attempts = 0;
    std::optional<ChaosController::SockFault> fault;
  };

  /// One destination: its route, its queue and its dial state. Guarded by
  /// the node lock except `depth`, which queue_depth() reads.
  struct Outbox {
    /// The live learned or dialed connection, if any.
    std::shared_ptr<Sock> route;
    /// Connected at least once: the generous first-dial budget (startup
    /// race) never applies again, or 40 jittered attempts would delay
    /// note_dial_failure — and thus suspicion — by seconds.
    bool known = false;
    std::deque<Queued> q;
    /// A frame of this destination is partially written: its tail is some
    /// connection's Sock::rest. Counts toward the depth.
    bool pinned = false;
    std::atomic<std::size_t> depth{0};
    /// A dial is in flight: the connecting socket, or an armed retry timer.
    std::shared_ptr<Sock> dialing;
    bool retry_armed = false;
    int dial_attempt = 0;  // attempts made by the current dial effort
    int dial_budget = 0;
    /// After a failed dial effort, frames are dropped until this virtual
    /// time instead of starting another.
    SimTime down_until = 0;
  };

  Outbox& outbox(ProcessId dest);

  /// Move `dest`'s queue forward: write what its live route takes, dial
  /// when there is none, drop the queue when no dial is possible. Returns
  /// without writing while a dial or an EPOLLOUT is pending: their
  /// completion kicks again. `from_send`: the head frame is the one send()
  /// just queued (counted in frames_inline when written here).
  void kick(ProcessId dest, Outbox& box, bool from_send = false);

  /// One write attempt of `sock`'s pinned tail and then `box`'s queued
  /// frames, with one writev: the only place frames hit a socket. Each
  /// frame first draws from the chaos script; a frame that draws a fault
  /// ends the batch, and the fault strikes it after the frames ahead of it
  /// are written. Written and torn frames leave the queue; a frame cut
  /// short leaves it with its tail pinned to `sock`. Returns true when a
  /// full socket buffer stopped the write (wait for EPOLLOUT); otherwise
  /// the batch went out or the connection died.
  bool write_queued(Sock& sock, Outbox& box);

  /// Dial `dest` through the AddressBook: non-blocking connects, retried
  /// on the node's timers within the budget, then the down window.
  void start_dial(ProcessId dest, Outbox& box);
  void dial_once(ProcessId dest, Outbox& box);
  void on_dialed(ProcessId dest, const std::shared_ptr<Sock>& sock);
  void dial_failed(ProcessId dest, Outbox& box);
  void drop_queue(Outbox& box);
  static void sync_depth(Outbox& box);

  /// Poll an accepted or connected socket.
  void adopt(const std::shared_ptr<Sock>& sock);
  void on_accept();
  void on_ready(const std::shared_ptr<Sock>& sock, std::uint32_t events);
  /// Read what `sock` has and deliver every whole frame, each at its own
  /// delivery time. Returns false when the connection ended (EOF, error or
  /// a corrupt frame).
  bool read_frames(const std::shared_ptr<Sock>& sock);

  /// Mark the connection dead, take it out of the loop and the routes, and
  /// drop its pinned tail.
  void kill(Sock& sock);
  void set_want_out(Sock& sock, bool on);

  /// Hand a message to the local process `to` (node lock held).
  void local_deliver(ProcessId from, ProcessId to, const sim::BodyPtr& body);

  NodeRuntime& rt_;
  std::shared_ptr<AddressBook> book_;
  Options opt_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint64_t listen_token_ = 0;
  std::uint16_t port_ = 0;

  /// Processes register before start() and unregister after stop().
  std::unordered_map<ProcessId, sim::Process*> procs_;

  std::vector<std::shared_ptr<Sock>> conns_;  // node lock
  /// Expires on stop(): a dial-retry timer firing later touches nothing.
  std::shared_ptr<void> alive_;

  /// Outboxes live until destruction; out_mu_ guards the map's structure
  /// (inserts, and queue_depth()'s lookups from other threads).
  mutable std::mutex out_mu_;
  std::unordered_map<ProcessId, std::unique_ptr<Outbox>> outboxes_;

  std::shared_ptr<FailureDetector> detector_;
  std::shared_ptr<ChaosController> chaos_;

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> frames_dropped_overflow_{0};
  std::atomic<std::uint64_t> frames_replayed_{0};
  std::atomic<std::uint64_t> frames_inline_{0};
};

}  // namespace ares::net
