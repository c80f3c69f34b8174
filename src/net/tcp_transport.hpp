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
//   * Writes on the sending thread: a frame goes onto the socket from the
//     thread that sends it (a client's op thread, or a server's reader
//     thread running the handler) with one non-blocking write, when the
//     destination has nothing queued, nobody is mid-write toward it and a
//     live connection exists. Most frames never cross a thread.
//   * Per-destination sender threads for the slow cases only: dialing, a
//     backlog, and finishing a frame a full socket buffer cut short. The
//     thread is spawned on the first frame that actually has to wait, so
//     a SIGKILLed server stalls only its own queue while the rest of a
//     quorum fan-out proceeds at full speed.
//   * Learned routes: listeners never dial. A server answers a client over
//     the connection the client dialed in on — the frame header's `from`
//     binds the connection to a peer id on first receipt. Only processes
//     published in the AddressBook (servers) are ever dialed.
//   * Delivery: a reader thread decodes a frame and hands it to the node's
//     NodeRuntime::run(), so protocol handlers and coroutine resumptions
//     stay single-threaded per node.
//
// atomic_broadcast degrades to per-destination sends: real crash-stop
// networks have no all-or-none md-primitive, so protocols that *depend* on
// that guarantee (the Section-5 direct state transfer) are verified on the
// sim backend (see sim::Transport).
//
// Lifetime: stop() (idempotent, called by the destructor) joins every
// thread. Registered processes must stay alive until stop() returns.
#pragma once

#include "common/types.hpp"
#include "net/chaos.hpp"
#include "net/failure_detector.hpp"
#include "net/runtime.hpp"
#include "sim/transport.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
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

    /// Dial budget for a destination never connected before (covers the
    /// startup race where a peer's listener is still coming up) vs. one
    /// whose established connection died (it probably crashed).
    int dial_attempts = 40;
    int redial_attempts = 2;
    int dial_retry_ms = 50;

    /// ± percent jitter on every dial retry sleep (see
    /// jittered_dial_delay_ms): a fixed sleep synchronizes every sender
    /// thread of every client into a reconnect stampede after a server
    /// restart.
    int dial_retry_jitter_pct = 50;

    /// After a failed dial, drop frames to that destination without
    /// re-dialing for this long (a crashed server must not cost every
    /// subsequent frame a connect timeout).
    int down_ms = 2000;

    /// Per-destination sender queue bound. When a peer is dead or
    /// partitioned its queue would otherwise grow without limit (every
    /// retransmission, probe and op adds frames nobody drains); beyond
    /// this depth the OLDEST frame is dropped — stale rounds lose to the
    /// live operation's traffic, and the protocols tolerate loss by
    /// construction.
    std::size_t max_queue_frames = 512;

    /// After a write fails mid-frame (peer reset the connection), how many
    /// times the frame is re-offered to a freshly dialed connection before
    /// being dropped (reconnect-and-replay of unacked frames).
    int write_replay_attempts = 2;
  };

  TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book);
  TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book,
               Options opt);
  ~TcpTransport() override;

  /// Bind + listen (if configured) and start accepting. Must be called
  /// before the first frame can flow; processes may register earlier.
  void start();

  /// Close every socket and join every thread. Idempotent.
  void stop();

  /// Actual listening port (after start() with listen=true).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Install a failure detector: enqueue() fast-fails frames to suspected
  /// peers, the reader feeds receipts back, and the dial path shrinks its
  /// budget for suspects. Call before start(); not thread-safe to swap
  /// while frames are flowing.
  void set_failure_detector(std::shared_ptr<FailureDetector> fd) {
    detector_ = std::move(fd);
  }
  [[nodiscard]] const std::shared_ptr<FailureDetector>& failure_detector()
      const {
    return detector_;
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
  /// Subsets of frames_dropped(), by cause.
  [[nodiscard]] std::uint64_t frames_dropped_overflow() const {
    return frames_dropped_overflow_;
  }
  [[nodiscard]] std::uint64_t frames_fastfailed() const {
    return frames_fastfailed_;
  }
  /// Frames rewritten onto a freshly dialed connection after a write
  /// failure (reconnect-and-replay).
  [[nodiscard]] std::uint64_t frames_replayed() const {
    return frames_replayed_;
  }
  /// Frames whose first write attempt ran on the sending thread instead of
  /// the destination's sender thread, whatever that attempt's outcome.
  [[nodiscard]] std::uint64_t frames_inline() const { return frames_inline_; }

  /// Current depth of the sender queue toward `dest` (0 if none exists),
  /// counting a partially written frame whose rest awaits the sender.
  [[nodiscard]] std::size_t queue_depth(ProcessId dest) const;

  // --- sim::Transport --------------------------------------------------------
  void register_process(sim::Process& p) override;
  void unregister_process(ProcessId id) override;
  void send(ProcessId from, ProcessId to, sim::BodyPtr body) override;
  void atomic_broadcast(ProcessId from, std::vector<ProcessId> dests,
                        sim::BodyPtr body) override;

 private:
  /// One TCP connection. A single reader thread owns the receive side; the
  /// write side is shared under write_mu (two outboxes may route over one
  /// connection when a peer node hosts two processes). The fd is closed
  /// when the last reference drops, so a thread still holding a dead Sock
  /// can never write to a reused descriptor.
  struct Sock {
    explicit Sock(int fd) : fd(fd) {}
    ~Sock();
    Sock(const Sock&) = delete;
    Sock& operator=(const Sock&) = delete;

    /// Mark dead and shut both directions down: the reader wakes, writers
    /// fail fast.
    void kill();

    const int fd;
    std::mutex write_mu;
    std::atomic<bool> dead{false};
    /// Unwritten tail of a frame whose non-blocking write stopped part-way
    /// (guarded by write_mu). Nothing else may go onto this connection
    /// before it; it is finished here or dropped with the connection,
    /// never replayed elsewhere.
    std::vector<std::uint8_t> rest;
    bool reader_done = false;  // guarded by io_mu_
  };

  /// A frame waiting for the sender thread, with the number of write
  /// attempts it has already used (a failed write on the sending thread
  /// counts against the replay budget).
  struct Queued {
    std::vector<std::uint8_t> frame;
    int attempts = 0;
  };

  struct Outbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Queued> q;
    /// Connection holding a partially written frame of this destination;
    /// logically the head of the queue.
    std::shared_ptr<Sock> pinned;
    /// Some thread is writing a frame toward this destination; whoever
    /// else has a frame for it must queue, so frames keep their order.
    bool writing = false;
    bool stop = false;
    std::thread th;

    [[nodiscard]] std::size_t depth() const {
      return q.size() + (pinned ? 1 : 0);
    }
  };

  struct Conn {
    std::shared_ptr<Sock> sock;
    std::thread reader;
  };

  /// Outcome of one write attempt of one frame (see write_frame).
  enum class WriteOutcome {
    kSent,     // every byte is on the wire
    kTorn,     // chaos tore it: a prefix went out, the connection is dead
    kPartial,  // a full socket buffer cut it short: Sock::rest holds the tail
    kBlocked,  // a full socket buffer took no byte: the frame is untouched
    kFailed,   // reset or write error: the frame is intact, replayable
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Sock> sock);
  void sender_loop(ProcessId dest, Outbox* box);

  /// The sender thread's reconnect-and-replay of one queued frame.
  void send_queued(ProcessId dest, Queued item);

  /// One write attempt of `frame` on `sock`, the only place frames hit a
  /// socket: consults the chaos script, counts sent/torn frames, and on a
  /// partial non-blocking write pins the rest to `sock`. Caller holds
  /// sock.write_mu and sock.rest is empty.
  WriteOutcome write_frame(Sock& sock, std::vector<std::uint8_t>& frame,
                           bool blocking);

  /// Finish (blocking) the partial frame pinned to `sock`, if any. Returns
  /// whether the connection is still usable. Caller holds sock.write_mu.
  bool finish_rest_locked(Sock& sock);

  /// Append to (or, for a frame whose write was attempted, prepend to) the
  /// queue, enforce the bound, and wake the sender. Caller holds box.mu.
  void queue_locked(ProcessId dest, Outbox& box, Queued item, bool front);

  /// Spawn the destination's sender thread on its first queued frame, and
  /// wake it. Caller holds box.mu.
  void wake_sender_locked(ProcessId dest, Outbox& box);

  /// The live learned or dialed route to `dest`, or nullptr. Never dials.
  std::shared_ptr<Sock> live_route(ProcessId dest);

  /// The live learned route to `dest`, dialing through the AddressBook if
  /// there is none. Returns nullptr when the destination is unreachable.
  std::shared_ptr<Sock> route_or_dial(ProcessId dest);

  /// Wrap an accepted/dialed fd: registers it and spawns its reader, after
  /// reaping the readers of connections that have ended. Returns nullptr
  /// (caller closes fd) when the transport has stopped.
  std::shared_ptr<Sock> adopt_fd(int fd);

  void enqueue(ProcessId to, std::vector<std::uint8_t> frame);

  /// Hand a message to the local process `to` (runs inside rt_.run() or a
  /// posted simulator event — node lock held either way).
  void local_deliver(ProcessId from, ProcessId to, const sim::BodyPtr& body);

  NodeRuntime& rt_;
  std::shared_ptr<AddressBook> book_;
  Options opt_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex procs_mu_;
  std::unordered_map<ProcessId, sim::Process*> procs_;

  std::mutex io_mu_;  // conns_, routes_, known_peers_, down_until_
  std::vector<Conn> conns_;
  std::unordered_map<ProcessId, std::shared_ptr<Sock>> routes_;
  /// Destinations that were connected at least once. The generous
  /// first-dial budget (startup race) must never apply to these: a dead
  /// route may already be erased by its reader thread when the sender
  /// re-dials, and 40 jittered attempts would delay note_dial_failure —
  /// and thus suspicion — by seconds.
  std::unordered_set<ProcessId> known_peers_;
  std::unordered_map<ProcessId, std::chrono::steady_clock::time_point>
      down_until_;

  /// Outboxes live until destruction (stop() only drains them), so a
  /// sending thread racing stop() never touches a freed one.
  mutable std::mutex out_mu_;
  std::unordered_map<ProcessId, std::unique_ptr<Outbox>> outboxes_;

  std::shared_ptr<FailureDetector> detector_;
  std::shared_ptr<ChaosController> chaos_;

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> frames_dropped_overflow_{0};
  std::atomic<std::uint64_t> frames_fastfailed_{0};
  std::atomic<std::uint64_t> frames_replayed_{0};
  std::atomic<std::uint64_t> frames_inline_{0};
};

}  // namespace ares::net
