#include "net/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <limits>

namespace ares::net {

namespace {

using std::chrono::microseconds;
using std::chrono::steady_clock;

/// Sleep floor while events are due "now": avoids a busy spin when the
/// wall clock sits exactly on the next timer's deadline.
constexpr microseconds kMinSleep{100};

/// Poll ceiling: even with an empty event queue, re-check this often, so a
/// predicate that some path outside run() satisfies still gets seen.
constexpr microseconds kIdleSleep{20'000};

/// The driver's wait_until timeout; it simply waits again when it lapses.
constexpr SimDuration kDriverSliceUs = 3'600'000'000;

}  // namespace

NodeRuntime::NodeRuntime(std::uint64_t seed) : sim_(seed) {}

NodeRuntime::~NodeRuntime() { stop_driver(); }

SimTime NodeRuntime::unix_now_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<SimTime>(ts.tv_sec) * 1'000'000 +
         static_cast<SimTime>(ts.tv_nsec) / 1'000;
}

SimTime NodeRuntime::wall_locked() {
  wall_floor_ = std::max(wall_floor_, unix_now_us());
  return wall_floor_;
}

void NodeRuntime::pump_locked() {
  const SimTime target = wall_locked();
  if (target > sim_.now()) {
    sim_.run_for(target - sim_.now());
  } else {
    sim_.run_for(0);
  }
}

void NodeRuntime::run(const std::function<void()>& fn) {
  std::lock_guard<std::mutex> lk(mu_);
  sim::Simulator::ScopedCurrent cur(sim_);
  pump_locked();
  fn();
  // Drain the resumptions and same-time sends fn just posted, so e.g. a
  // reply delivery resumes its waiting coroutine before we hand the lock
  // back to the socket thread.
  sim_.run_for(0);
  wake_waiters_locked();
}

void NodeRuntime::wake_waiters_locked(const Waiter* self) {
  if (waiters_.empty()) return;
  const SimTime next = sim_.pending_events() > 0
                           ? sim_.next_event_time()
                           : std::numeric_limits<SimTime>::max();
  for (Waiter* w : waiters_) {
    if (w == self || w->notified) continue;
    if (next < w->wake_at || (*w->pred)()) {
      w->notified = true;
      w->cv.notify_one();
    }
  }
}

bool NodeRuntime::wait_until(const std::function<bool()>& pred,
                             SimDuration timeout_us) {
  std::unique_lock<std::mutex> lk(mu_);
  sim::Simulator::ScopedCurrent cur(sim_);
  const auto deadline = steady_clock::now() + microseconds(timeout_us);
  Waiter self;
  self.pred = &pred;
  waiters_.push_back(&self);
  struct Unregister {
    std::vector<Waiter*>& list;
    Waiter* w;
    ~Unregister() { std::erase(list, w); }
  } unregister{waiters_, &self};
  for (;;) {
    pump_locked();
    // Timers this pump fired may have satisfied (or re-planned) another
    // sleeper of this node.
    wake_waiters_locked(&self);
    if (pred()) return true;
    const auto now = steady_clock::now();
    if (now >= deadline) return false;
    auto sleep = kIdleSleep;
    if (sim_.pending_events() > 0) {
      const SimTime next = sim_.next_event_time();
      const SimTime due = next > wall_floor_ ? next - wall_floor_ : 0;
      sleep = std::min(sleep, microseconds(due));
    }
    sleep = std::clamp(
        sleep, kMinSleep,
        std::chrono::duration_cast<microseconds>(deadline - now) + kMinSleep);
    self.wake_at = wall_floor_ + static_cast<SimTime>(sleep.count());
    self.notified = false;
    self.cv.wait_for(lk, sleep);
  }
}

void NodeRuntime::start_driver() {
  std::lock_guard<std::mutex> lk(mu_);
  if (driver_.joinable()) return;
  driver_stop_ = false;
  driver_ = std::thread(&NodeRuntime::driver_loop, this);
}

void NodeRuntime::stop_driver() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!driver_.joinable()) return;
    driver_stop_ = true;
    wake_waiters_locked();
  }
  driver_.join();
}

void NodeRuntime::driver_loop() {
  while (!wait_until([this] { return driver_stop_; }, kDriverSliceUs)) {
  }
}

}  // namespace ares::net
