#include "net/runtime.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

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

/// The driver's wait_until timeout; it waits again when it lapses.
constexpr SimDuration kDriverSliceUs = 3'600'000'000;

/// Token of the eventfd in the epoll set; watch() tokens start above it.
constexpr std::uint64_t kWakeToken = 0;

/// Ready events taken per epoll call.
constexpr int kMaxEvents = 64;

int epoll_ctl_token(int epoll_fd, int op, int fd, std::uint64_t token,
                    std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  return ::epoll_ctl(epoll_fd, op, fd, &ev);
}

}  // namespace

NodeRuntime::NodeRuntime(std::uint64_t seed)
    : sim_(seed),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      epoll_ctl_token(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, kWakeToken,
                      EPOLLIN) != 0) {
    throw std::runtime_error("net::NodeRuntime: epoll/eventfd setup failed");
  }
}

NodeRuntime::~NodeRuntime() {
  stop_driver();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

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
  sim_.run_for(target > sim_.now() ? target - sim_.now() : 0);
}

void NodeRuntime::run(const std::function<void()>& fn) {
  std::lock_guard<std::mutex> lk(mu_);
  sim::Simulator::ScopedCurrent cur(sim_);
  pump_locked();
  epoll_event events[kMaxEvents];
  dispatch_locked(events, ::epoll_wait(epoll_fd_, events, kMaxEvents, 0),
                  /*poller=*/false);
  fn();
  // Drain the resumptions and same-time sends fn just posted, so e.g. an
  // operation's first round is on the wire before the lock is handed back.
  sim_.run_for(0);
  wake_waiters_locked();
}

std::uint64_t NodeRuntime::watch(int fd, std::uint32_t events,
                                 IoHandler handler) {
  const std::uint64_t token = next_token_++;
  watches_.emplace(token, std::make_shared<IoHandler>(std::move(handler)));
  epoll_ctl_token(epoll_fd_, EPOLL_CTL_ADD, fd, token, events);
  return token;
}

void NodeRuntime::rewatch(int fd, std::uint64_t token, std::uint32_t events) {
  epoll_ctl_token(epoll_fd_, EPOLL_CTL_MOD, fd, token, events);
}

void NodeRuntime::unwatch(int fd, std::uint64_t token) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  watches_.erase(token);
}

void NodeRuntime::dispatch_locked(const epoll_event* events, int n,
                                  bool poller) {
  for (int i = 0; i < n; ++i) {
    const std::uint64_t token = events[i].data.u64;
    if (token == kWakeToken) {
      std::uint64_t count = 0;
      if (poller) (void)!::read(wake_fd_, &count, sizeof(count));
      continue;
    }
    auto it = watches_.find(token);
    if (it == watches_.end()) continue;  // unwatched since it was reported
    // The handler may unwatch itself; keep it alive until it returns.
    const std::shared_ptr<IoHandler> handler = it->second;
    (*handler)(events[i].events);
  }
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
      if (w == poller_) {
        const std::uint64_t one = 1;
        (void)!::write(wake_fd_, &one, sizeof(one));
      } else {
        w->cv.notify_one();
      }
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
  // On the way out, leave the list and hand the poll on: the woken sleeper
  // finds no poller and takes over.
  struct Leave {
    NodeRuntime& rt;
    Waiter* w;
    ~Leave() {
      std::erase(rt.waiters_, w);
      if (rt.poller_ != w) return;
      rt.poller_ = nullptr;
      if (rt.waiters_.empty()) return;
      rt.waiters_.front()->notified = true;
      rt.waiters_.front()->cv.notify_one();
    }
  } leave{*this, &self};
  epoll_event events[kMaxEvents];
  for (;;) {
    pump_locked();
    // Timers this pump fired, and frames the last poll delivered, may have
    // satisfied (or re-planned) another sleeper of this node.
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
    if (poller_ == nullptr) poller_ = &self;
    if (poller_ != &self) {
      self.cv.wait_for(lk, sleep);
      continue;
    }
    const timespec ts{static_cast<time_t>(sleep.count() / 1'000'000),
                      static_cast<long>(sleep.count() % 1'000'000) * 1'000};
    lk.unlock();
    const int n = ::epoll_pwait2(epoll_fd_, events, kMaxEvents, &ts, nullptr);
    lk.lock();
    dispatch_locked(events, n, /*poller=*/true);
  }
}

void NodeRuntime::start_driver() {
  std::lock_guard<std::mutex> lk(mu_);
  if (driver_.joinable()) return;
  driver_stop_ = false;
  driver_ = std::thread([this] {
    while (!wait_until([this] { return driver_stop_; }, kDriverSliceUs)) {
    }
  });
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

}  // namespace ares::net
