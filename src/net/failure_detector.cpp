#include "net/failure_detector.hpp"

namespace ares::net {

bool FailureDetector::eval(Peer& p, SimTime now_us) const {
  if (p.suspect) return true;
  if (p.oldest_unanswered != 0 &&
      now_us >= p.oldest_unanswered + opt_.suspect_after_us) {
    p.suspect = true;
    ++suspicions_;
  }
  return p.suspect;
}

void FailureDetector::note_send(ProcessId peer, SimTime now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  Peer& p = peers_[peer];
  if (p.oldest_unanswered == 0) p.oldest_unanswered = now_us;
}

void FailureDetector::note_receive(ProcessId peer, SimTime now_us) {
  (void)now_us;
  std::lock_guard<std::mutex> lk(mu_);
  Peer& p = peers_[peer];
  p.oldest_unanswered = 0;
  if (p.suspect) {
    p.suspect = false;
    ++heals_;
  }
}

void FailureDetector::note_dial_failure(ProcessId peer, SimTime now_us) {
  (void)now_us;
  std::lock_guard<std::mutex> lk(mu_);
  Peer& p = peers_[peer];
  if (!p.suspect) {
    p.suspect = true;
    ++suspicions_;
  }
}

bool FailureDetector::suspected(ProcessId peer, SimTime now_us) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) return false;
  return eval(it->second, now_us);
}

bool FailureDetector::allow_send(ProcessId peer, SimTime now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  Peer& p = peers_[peer];
  if (!eval(p, now_us)) return true;
  if (now_us - p.last_probe >= opt_.probe_interval_us) {
    p.last_probe = now_us;
    return true;  // the probe
  }
  ++fast_fails_;
  return false;
}

bool FailureDetector::allow_op_probe(SimTime now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  if (now_us - last_op_probe_ >= opt_.probe_interval_us) {
    last_op_probe_ = now_us;
    return true;
  }
  return false;
}

std::uint64_t FailureDetector::suspicions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return suspicions_;
}

std::uint64_t FailureDetector::heals() const {
  std::lock_guard<std::mutex> lk(mu_);
  return heals_;
}

std::uint64_t FailureDetector::fast_fails() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fast_fails_;
}

}  // namespace ares::net
