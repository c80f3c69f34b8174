// NodeRuntime: one node's execution context on the socket backend. The
// protocol code (Process subclasses, coroutines, timers) was written for the
// single-threaded deterministic simulator; on real sockets every node keeps
// exactly that machinery — a private sim::Simulator whose event queue now
// holds coroutine resumptions and timer callbacks — but drives it from
// wall-clock time under a per-node mutex:
//
//   * SimTime unit == 1 microsecond. pump advances the node's virtual clock
//     to "microseconds since the Unix epoch" and runs every due event, so
//     schedule_after(…) timers (lease expiry, TREAS retries, Paxos backoff)
//     fire at real deadlines. All nodes of a deployment read the same
//     epoch, so lease grant expiries computed on a server are comparable
//     against a client's clock — on one host exactly, across hosts up to
//     clock skew (which the lease ε already budgets for).
//   * run(fn) is the only way in: it takes the node lock, makes this node's
//     simulator the thread's Simulator::current() (so coroutine resumptions
//     land in this queue, not inline on a socket thread), pumps, runs fn,
//     then drains the resumptions fn produced. TcpTransport delivers every
//     incoming frame through run(), so protocol handlers stay effectively
//     single-threaded per node — the concurrency story the code was
//     written under.
//   * await(future) blocks a real thread (a client caller) until the future
//     completes, sleeping on its own condition variable between pumps.
//   * Wake-ups are predicate-gated: every sleeper registers its predicate
//     and its planned wake time, and run() (or another sleeper's pump)
//     wakes it only when its predicate now holds or when a timer now falls
//     due before that planned wake. A reply that completes no quorum, or
//     a frame that only touches server state, wakes nobody.
//   * start_driver() spawns the server-side timer thread: nobody awaits
//     anything on a server, so someone must pump lease reapers and
//     retry timers. It is a sleeper whose predicate is "stop requested".
#pragma once

#include "common/types.hpp"
#include "sim/coro.hpp"
#include "sim/simulator.hpp"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ares::net {

class NodeRuntime {
 public:
  /// Default patience of await()/sync(): generous against scheduler noise,
  /// finite so a dead quorum fails the operation instead of hanging the
  /// harness forever.
  static constexpr SimDuration kDefaultOpTimeoutUs = 30'000'000;

  explicit NodeRuntime(std::uint64_t seed = 1);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Microseconds since the Unix epoch (CLOCK_REALTIME) — the shared time
  /// base every node's virtual clock tracks.
  [[nodiscard]] static SimTime unix_now_us();

  /// Execute `fn` on this node: node lock held, Simulator::current() set,
  /// virtual clock pumped to wall time before and resumptions drained
  /// after. Everything that touches a Process of this node goes through
  /// here — including *starting* operations, because a Future-returning
  /// coroutine runs eagerly (it sends its first round from the calling
  /// thread).
  void run(const std::function<void()>& fn);

  /// Pump timers and sleep until `pred()` holds (checked under the node
  /// lock) or `timeout_us` of wall time elapses. Returns whether the
  /// predicate held.
  bool wait_until(const std::function<bool()>& pred, SimDuration timeout_us);

  /// Block the calling thread until `f` completes; throws on timeout.
  template <typename T>
  T await(sim::Future<T> f, SimDuration timeout_us = kDefaultOpTimeoutUs) {
    if (!wait_until([&f] { return f.ready(); }, timeout_us)) {
      throw std::runtime_error("net::NodeRuntime: operation timed out");
    }
    return f.get();
  }

  /// Start the operation `mk()` returns under the node lock, then block
  /// until it completes: the blocking-call surface of the socket backend.
  template <typename MakeOp>
  auto sync(MakeOp&& mk, SimDuration timeout_us = kDefaultOpTimeoutUs) {
    using Fut = std::invoke_result_t<MakeOp&>;
    Fut f;
    run([&] { f = mk(); });
    return await(std::move(f), timeout_us);
  }

  /// After an aborted wait unwinds, how long sync() waits for the typed
  /// result to materialize before falling back to the legacy timeout
  /// exception. Generous: the abort itself is synchronous, the grace only
  /// covers lock contention on the node.
  static constexpr SimDuration kAbortGraceUs = 2'000'000;

  /// Like sync(mk, timeout_us), but when the wall deadline expires
  /// `on_deadline` runs on the node first (typically
  /// Process::abort_pending_waits, which makes the operation's coroutine
  /// unwind and fulfill its future with a typed OpStatus). Only if the
  /// future still isn't ready after a grace period does the legacy timeout
  /// exception fire — with deadlines armed it never should.
  template <typename MakeOp>
  auto sync(MakeOp&& mk, SimDuration timeout_us,
            const std::function<void()>& on_deadline) {
    using Fut = std::invoke_result_t<MakeOp&>;
    Fut f;
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

  /// Timer pump thread for nodes nobody awaits on (servers): wakes for the
  /// next due event and otherwise idles. Idempotent; stop_driver() (or the
  /// destructor) joins it.
  void start_driver();
  void stop_driver();

 private:
  /// One thread blocked in wait_until, registered in waiters_ while it
  /// sleeps. Fields are guarded by mu_.
  struct Waiter {
    const std::function<bool()>* pred = nullptr;
    SimTime wake_at = 0;  // planned wake, virtual-clock µs
    bool notified = false;
    std::condition_variable cv;
  };

  void driver_loop();

  /// Notify every sleeper (other than `self`) whose predicate now holds or
  /// whose planned wake is later than the next pending timer. Caller holds
  /// mu_.
  void wake_waiters_locked(const Waiter* self = nullptr);

  /// Advance the virtual clock to wall time, firing every due event.
  /// Caller holds mu_ with Simulator::current() == &sim_.
  void pump_locked();

  /// Wall time in µs, clamped monotonic per runtime (CLOCK_REALTIME may
  /// step backwards; the simulator clock must not). Caller holds mu_.
  SimTime wall_locked();

  sim::Simulator sim_;
  std::mutex mu_;
  std::vector<Waiter*> waiters_;
  SimTime wall_floor_ = 0;
  std::thread driver_;
  bool driver_stop_ = false;
};

}  // namespace ares::net
