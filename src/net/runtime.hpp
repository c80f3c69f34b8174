// NodeRuntime: one node's execution context on the socket backend. The
// protocol code (Process subclasses, coroutines, timers) was written for the
// single-threaded deterministic simulator; on real sockets every node keeps
// exactly that machinery — a private sim::Simulator whose event queue now
// holds coroutine resumptions and timer callbacks — but drives it from
// wall-clock time under a per-node mutex, with one epoll set for the node's
// sockets:
//
//   * SimTime unit == 1 microsecond. pump advances the node's virtual clock
//     to "microseconds since the Unix epoch" and runs every due event, so
//     schedule_after(…) timers (lease expiry, TREAS retries, Paxos backoff)
//     fire at real deadlines. All nodes of a deployment read the same
//     epoch, so lease grant expiries computed on a server are comparable
//     against a client's clock — on one host exactly, across hosts up to
//     clock skew (which the lease ε already budgets for).
//   * run(fn) is the way in, and socket handlers (see watch) run under the
//     same node lock, so protocol handlers stay single-threaded per node.
//   * There is no I/O thread. The first thread sleeping in wait_until is
//     the node's poller: it sleeps in epoll_pwait2 until its planned wake
//     and dispatches what becomes ready; other sleepers wait on condition
//     variables, and a poller that returns hands the poll on. So a node
//     makes I/O progress only while one of its threads waits (a client's
//     op thread in sync() reads its own replies) or its driver runs.
//   * Wake-ups are predicate-gated: a sleeper is woken — the poller through
//     the node's eventfd — only when its predicate now holds or a timer now
//     falls due before its planned wake.
//   * start_driver() gives a node nobody awaits on (a server) its one
//     thread: a sleeper whose predicate is "stop requested".
#pragma once

#include "common/types.hpp"
#include "sim/coro.hpp"
#include "sim/simulator.hpp"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

struct epoll_event;

namespace ares::net {

class NodeRuntime {
 public:
  /// Default patience of sync(): generous against scheduler noise, finite
  /// so a dead quorum fails the operation instead of hanging the harness.
  static constexpr SimDuration kDefaultOpTimeoutUs = 30'000'000;

  /// After an aborted wait unwinds, how long sync() waits for the typed
  /// result before the timeout exception. Generous: the abort itself is
  /// synchronous, the grace only covers lock contention on the node.
  static constexpr SimDuration kAbortGraceUs = 2'000'000;

  explicit NodeRuntime(std::uint64_t seed = 1);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Microseconds since the Unix epoch (CLOCK_REALTIME) — the shared time
  /// base every node's virtual clock tracks.
  [[nodiscard]] static SimTime unix_now_us();

  /// Execute `fn` on this node: node lock held, Simulator::current() set,
  /// clock pumped and waiting frames delivered before (so one operation's
  /// late replies never count toward the next), resumptions drained after.
  /// Everything that touches a Process of this node goes through here —
  /// including *starting* operations, because a Future-returning coroutine
  /// runs eagerly (it sends its first round from the calling thread).
  void run(const std::function<void()>& fn);

  /// Pump timers and poll the node's sockets until `pred()` holds (checked
  /// under the node lock) or `timeout_us` of wall time elapses. Returns
  /// whether the predicate held.
  bool wait_until(const std::function<bool()>& pred, SimDuration timeout_us);

  /// Start the operation `mk()` returns under the node lock, then block
  /// until it completes: the blocking-call surface of the socket backend.
  /// When `timeout_us` expires, `on_deadline` (if given) runs on the node
  /// first — typically Process::abort_pending_waits, which makes the
  /// operation unwind and fulfill its future with a typed OpStatus — and
  /// only a future still not ready after kAbortGraceUs throws.
  template <typename MakeOp>
  auto sync(MakeOp&& mk, SimDuration timeout_us = kDefaultOpTimeoutUs,
            const std::function<void()>& on_deadline = {}) {
    std::invoke_result_t<MakeOp&> f;
    run([&] { f = mk(); });
    if (!wait_until([&f] { return f.ready(); }, timeout_us) && on_deadline) {
      run(on_deadline);
      (void)wait_until([&f] { return f.ready(); }, kAbortGraceUs);
    }
    if (!f.ready()) {
      throw std::runtime_error("net::NodeRuntime: operation timed out");
    }
    return f.get();
  }

  /// The node's own thread, for nodes nobody awaits on (servers): polls its
  /// sockets and fires its timers. Idempotent; stop_driver() (or the
  /// destructor) joins it.
  void start_driver();
  void stop_driver();

  // --- the node's epoll set: caller holds the node lock (inside run(), a
  // handler, or a pumped timer) --------------------------------------------

  /// Readiness callback with the epoll event mask, run under the node lock
  /// with Simulator::current() set, on whichever thread polls.
  using IoHandler = std::function<void(std::uint32_t events)>;

  /// Poll `fd` (level-triggered) for `events`; returns the watch's token.
  std::uint64_t watch(int fd, std::uint32_t events, IoHandler handler);
  void rewatch(int fd, std::uint64_t token, std::uint32_t events);
  /// Stop polling `fd` before it is closed. Readiness already reported for
  /// the token is dropped, so a reused fd number never reaches the handler.
  void unwatch(int fd, std::uint64_t token);

  /// Advance the virtual clock to wall time, firing every due event. A
  /// handler delivering several frames calls it before each one, so every
  /// frame is stamped with its own delivery time.
  void pump_locked();

 private:
  /// One thread blocked in wait_until, registered in waiters_ while it
  /// sleeps. Fields are guarded by mu_.
  struct Waiter {
    const std::function<bool()>* pred = nullptr;
    SimTime wake_at = 0;  // planned wake, virtual-clock µs
    bool notified = false;
    std::condition_variable cv;
  };

  /// Notify every sleeper (other than `self`) whose predicate now holds or
  /// whose planned wake is later than the next pending timer. Caller holds
  /// mu_.
  void wake_waiters_locked(const Waiter* self = nullptr);

  /// Run the handlers of `n` ready events. Only the poller drains the
  /// eventfd, so a wake-up posted before it enters epoll is never consumed
  /// by another thread's poll. Caller holds mu_.
  void dispatch_locked(const epoll_event* events, int n, bool poller);

  /// Wall time in µs, clamped monotonic per runtime (CLOCK_REALTIME may
  /// step backwards; the simulator clock must not). Caller holds mu_.
  SimTime wall_locked();

  sim::Simulator sim_;
  std::mutex mu_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd in the epoll set: wakes the poller
  std::vector<Waiter*> waiters_;
  Waiter* poller_ = nullptr;  // the sleeper in epoll_pwait2, if any
  std::unordered_map<std::uint64_t, std::shared_ptr<IoHandler>> watches_;
  std::uint64_t next_token_ = 1;
  SimTime wall_floor_ = 0;
  std::thread driver_;
  bool driver_stop_ = false;
};

}  // namespace ares::net
