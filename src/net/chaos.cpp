#include "net/chaos.hpp"

namespace ares::net {

// --- ChaosController ---------------------------------------------------------

void ChaosController::partition(
    const std::vector<std::vector<ProcessId>>& groups) {
  std::lock_guard<std::mutex> lk(mu_);
  group_of_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (ProcessId id : groups[g]) group_of_[id] = g;
  }
}

void ChaosController::partition_one_way(std::vector<ProcessId> from,
                                        std::vector<ProcessId> to) {
  std::lock_guard<std::mutex> lk(mu_);
  OneWayRule rule;
  rule.from.insert(from.begin(), from.end());
  rule.to.insert(to.begin(), to.end());
  one_way_.push_back(std::move(rule));
}

void ChaosController::heal() {
  std::lock_guard<std::mutex> lk(mu_);
  group_of_.clear();
  one_way_.clear();
}

void ChaosController::set_loss(double p, SimDuration window_us) {
  std::lock_guard<std::mutex> lk(mu_);
  loss_ = {p, window_us == 0 ? 0 : NodeRuntime::unix_now_us() + window_us};
}

void ChaosController::set_duplicate(double p, SimDuration window_us) {
  std::lock_guard<std::mutex> lk(mu_);
  duplicate_ = {p,
                window_us == 0 ? 0 : NodeRuntime::unix_now_us() + window_us};
}

void ChaosController::set_gray(ProcessId id, SimDuration extra_min_us,
                               SimDuration extra_max_us) {
  std::lock_guard<std::mutex> lk(mu_);
  gray_[id] = {extra_min_us, extra_max_us};
}

void ChaosController::clear_gray(ProcessId id) {
  std::lock_guard<std::mutex> lk(mu_);
  gray_.erase(id);
}

void ChaosController::set_reset_rate(double p, SimDuration window_us) {
  std::lock_guard<std::mutex> lk(mu_);
  reset_ = {p, window_us == 0 ? 0 : NodeRuntime::unix_now_us() + window_us};
}

void ChaosController::set_torn_rate(double p, SimDuration window_us) {
  std::lock_guard<std::mutex> lk(mu_);
  torn_ = {p, window_us == 0 ? 0 : NodeRuntime::unix_now_us() + window_us};
}

void ChaosController::clear_all() {
  std::lock_guard<std::mutex> lk(mu_);
  group_of_.clear();
  one_way_.clear();
  loss_ = {};
  duplicate_ = {};
  reset_ = {};
  torn_ = {};
  gray_.clear();
}

ChaosController::Verdict ChaosController::message_fault(ProcessId from,
                                                        ProcessId to,
                                                        SimTime now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  Verdict v;

  // Partitions first: a partitioned link drops everything, no dice rolled.
  auto fit = group_of_.find(from);
  auto tit = group_of_.find(to);
  if (fit != group_of_.end() && tit != group_of_.end() &&
      fit->second != tit->second) {
    ++dropped_;
    v.drop = true;
    return v;
  }
  for (const OneWayRule& rule : one_way_) {
    if (rule.from.contains(from) && rule.to.contains(to)) {
      ++dropped_;
      v.drop = true;
      return v;
    }
  }

  if (loss_.active(now_us) && rng_.chance(loss_.rate)) {
    ++dropped_;
    v.drop = true;
    return v;
  }
  v.duplicate = duplicate_.active(now_us) && rng_.chance(duplicate_.rate);
  // Gray failure delays apply in both directions of the gray process.
  SimDuration delay = 0;
  for (ProcessId id : {from, to}) {
    auto git = gray_.find(id);
    if (git != gray_.end()) {
      const auto [lo, hi] = git->second;
      delay += hi > lo ? rng_.uniform(lo, hi) : lo;
    }
  }
  v.delay_us = delay;
  return v;
}

ChaosController::SockFault ChaosController::sock_fault(SimTime now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  if (torn_.active(now_us) && rng_.chance(torn_.rate)) {
    ++torn_count_;
    return SockFault::kTear;
  }
  if (reset_.active(now_us) && rng_.chance(reset_.rate)) {
    ++reset_count_;
    return SockFault::kReset;
  }
  return SockFault::kNone;
}

std::uint64_t ChaosController::messages_dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

std::uint64_t ChaosController::frames_torn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return torn_count_;
}

std::uint64_t ChaosController::frames_reset() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reset_count_;
}

// --- ChaosTransport ----------------------------------------------------------

void ChaosTransport::send(ProcessId from, ProcessId to, sim::BodyPtr body) {
  const ChaosController::Verdict v =
      ctrl_->message_fault(from, to, NodeRuntime::unix_now_us());
  if (v.drop) return;
  if (v.delay_us > 0) {
    // send() always runs under the node lock with Simulator::current() set
    // (protocol code or a pumped timer), so scheduling is safe; the timer
    // fires from a later pump, still under the lock.
    auto* inner = &inner_;
    rt_.simulator().schedule_after(v.delay_us, [inner, from, to, body] {
      inner->send(from, to, body);
    });
    if (v.duplicate) inner_.send(from, to, body);
    return;
  }
  inner_.send(from, to, body);
  if (v.duplicate) inner_.send(from, to, body);
}

}  // namespace ares::net
