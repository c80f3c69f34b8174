#include "net/tcp_transport.hpp"

#include "net/wire.hpp"
#include "sim/process.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ares::net {

namespace {

/// Most queued frames one writev carries.
constexpr std::size_t kMaxBatch = 64;

/// Free space a connection's receive buffer keeps for the next recv.
constexpr std::size_t kMinRead = 16 * 1024;

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool to_sockaddr(const std::string& host, std::uint16_t port,
                 sockaddr_in& addr) {
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

}  // namespace

int jittered_dial_delay_ms(int base_ms, int jitter_pct, std::uint64_t salt,
                           int attempt) {
  if (base_ms <= 0) return 0;
  if (jitter_pct <= 0) return base_ms;
  // SplitMix64 of (salt, attempt) -> u in [0, 1) -> factor in [1-j, 1+j].
  std::uint64_t z =
      salt + static_cast<std::uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  const double j = static_cast<double>(jitter_pct) / 100.0;
  const double factor = 1.0 + j * (2.0 * u - 1.0);
  const int ms = static_cast<int>(static_cast<double>(base_ms) * factor);
  return ms < 1 ? 1 : ms;
}

// --- AddressBook -------------------------------------------------------------

void AddressBook::set(ProcessId id, Endpoint ep) {
  std::lock_guard<std::mutex> lk(mu_);
  map_[id] = std::move(ep);
}

std::optional<Endpoint> AddressBook::find(ProcessId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(id);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

// --- TcpTransport ------------------------------------------------------------

TcpTransport::Sock::~Sock() { ::close(fd); }

TcpTransport::TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book)
    : TcpTransport(rt, std::move(book), Options{}) {}

TcpTransport::TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book,
                           Options opt)
    : rt_(rt), book_(std::move(book)), opt_(std::move(opt)) {}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::start() {
  rt_.run([this] {
    alive_ = std::make_shared<int>(0);
    running_.store(true);
    if (!opt_.listen) return;

    listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    int one = 1;
    sockaddr_in addr{};
    if (listen_fd_ < 0 ||
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one)) != 0 ||
        !to_sockaddr(opt_.listen_host, opt_.listen_port, addr) ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      throw std::runtime_error("TcpTransport: cannot listen on " +
                               opt_.listen_host + ": " +
                               std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    listen_token_ =
        rt_.watch(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
  });
}

void TcpTransport::stop() {
  if (!running_.load()) return;
  rt_.run([this] {
    if (!running_.exchange(false)) return;
    alive_.reset();  // pending dial retries become no-ops
    if (listen_fd_ >= 0) {
      rt_.unwatch(listen_fd_, listen_token_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    const std::vector<std::shared_ptr<Sock>> conns = std::move(conns_);
    conns_.clear();
    for (const auto& s : conns) kill(*s);
    for (auto& [dest, box] : outboxes_) {
      if (box->dialing) rt_.unwatch(box->dialing->fd, box->dialing->token);
      box->dialing.reset();
      box->retry_armed = false;
      box->q.clear();
      sync_depth(*box);
    }
  });
}

void TcpTransport::register_process(sim::Process& p) { procs_[p.id()] = &p; }

void TcpTransport::unregister_process(ProcessId id) { procs_.erase(id); }

void TcpTransport::send(ProcessId from, ProcessId to, sim::BodyPtr body) {
  // A co-hosted destination is reached through the node's event queue.
  if (procs_.contains(to)) {
    rt_.simulator().post(
        [this, from, to, body] { local_deliver(from, to, body); });
    return;
  }
  if (!running_.load()) return;  // crashed/stopped node: frames vanish
  // Fast-fail frames to suspected peers (modulo the detector's probe
  // allowance) — dropped here is indistinguishable from dropped by the
  // network, which the protocols already tolerate, and it keeps a dead
  // peer's queue from soaking up memory.
  if (detector_) {
    const SimTime now = NodeRuntime::unix_now_us();
    if (!detector_->allow_send(to, now)) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Arm the silence clock when the frame is handed to the transport, not
    // when a write succeeds: a peer whose connection died and never comes
    // back would otherwise be invisible to the timeout rule.
    detector_->note_send(to, now);
  }
  Outbox& box = outbox(to);
  const bool idle = box.q.empty() && !box.pinned;
  box.q.push_back(Queued{wire::encode_frame(from, to, *body), 0, {}});
  // Bounded queue: drop the OLDEST while over budget (see Options). A
  // pinned partial frame counts toward the depth but is never dropped:
  // its prefix is already on the wire.
  while (opt_.max_queue_frames > 0 &&
         box.q.size() + (box.pinned ? 1 : 0) > opt_.max_queue_frames) {
    box.q.pop_front();
    frames_dropped_overflow_.fetch_add(1, std::memory_order_relaxed);
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  kick(to, box, idle);
}

void TcpTransport::atomic_broadcast(ProcessId from,
                                    std::vector<ProcessId> dests,
                                    sim::BodyPtr body) {
  // Approximation: per-destination sends (see sim::Transport — real
  // crash-stop networks have no all-or-none primitive).
  for (ProcessId d : dests) send(from, d, body);
}

TcpTransport::Outbox& TcpTransport::outbox(ProcessId dest) {
  auto it = outboxes_.find(dest);
  if (it != outboxes_.end()) return *it->second;
  std::lock_guard<std::mutex> lk(out_mu_);
  return *outboxes_.emplace(dest, std::make_unique<Outbox>()).first->second;
}

std::size_t TcpTransport::queue_depth(ProcessId dest) const {
  std::lock_guard<std::mutex> lk(out_mu_);
  auto it = outboxes_.find(dest);
  if (it == outboxes_.end()) return 0;
  return it->second->depth.load(std::memory_order_relaxed);
}

void TcpTransport::sync_depth(Outbox& box) {
  box.depth.store(box.q.size() + (box.pinned ? 1 : 0),
                  std::memory_order_relaxed);
}

void TcpTransport::kick(ProcessId dest, Outbox& box, bool from_send) {
  while (!box.q.empty() && running_.load() && !box.dialing &&
         !box.retry_armed) {
    if (!box.route || box.route->dead) {
      start_dial(dest, box);
      break;
    }
    const std::shared_ptr<Sock> sock = box.route;
    if (sock->want_out) break;
    if (from_send) {
      frames_inline_.fetch_add(1, std::memory_order_relaxed);
      from_send = false;
    }
    if (write_queued(*sock, box)) {
      set_want_out(*sock, true);
      break;
    }
  }
  sync_depth(box);
}

bool TcpTransport::write_queued(Sock& sock, Outbox& box) {
  iovec iov[kMaxBatch + 1];
  std::size_t n_iov = 0;
  const std::size_t rest = sock.rest.size();
  if (rest > 0) iov[n_iov++] = {sock.rest.data(), rest};
  // Each frame draws its fault once per write attempt; a draw whose frame
  // the socket did not reach is kept for the next attempt.
  std::size_t batch = 0;
  ChaosController::SockFault fault = ChaosController::SockFault::kNone;
  while (batch < box.q.size() && batch < kMaxBatch) {
    Queued& item = box.q[batch];
    if (!item.fault) {
      item.fault = chaos_ ? chaos_->sock_fault(NodeRuntime::unix_now_us())
                          : ChaosController::SockFault::kNone;
    }
    fault = *item.fault;
    if (fault != ChaosController::SockFault::kNone) break;
    iov[n_iov++] = {item.frame.data(), item.frame.size()};
    ++batch;
  }

  // A short count means a full socket buffer; an error behind it shows up
  // on the next attempt.
  std::size_t left = 0;
  bool broken = false;
  if (n_iov > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    ssize_t n = 0;
    do {
      n = ::sendmsg(sock.fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n >= 0) left = static_cast<std::size_t>(n);
    broken = n < 0 && errno != EAGAIN && errno != EWOULDBLOCK;
  }
  if (rest > 0) {
    if (left < rest) {
      if (broken) {
        kill(sock);  // drops the tail with the connection
        return false;
      }
      sock.rest.erase(sock.rest.begin(),
                      sock.rest.begin() + static_cast<std::ptrdiff_t>(left));
      return true;
    }
    left -= rest;
    sock.rest = {};
    sock.rest_of->pinned = false;
    sync_depth(*sock.rest_of);
    sock.rest_of = nullptr;
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
  }

  const auto pop_head = [&] {
    if (box.q.front().attempts > 0) {
      frames_replayed_.fetch_add(1, std::memory_order_relaxed);
    }
    box.q.pop_front();
  };
  // A reset, or a write error part-way: the peer discards a frame cut
  // short by a dead connection, so the whole frame may be replayed on a
  // new one, within its budget.
  const auto fail_head = [&] {
    kill(sock);
    Queued& head = box.q.front();
    head.fault.reset();
    if (head.attempts > 0) {
      frames_replayed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (++head.attempts > opt_.write_replay_attempts) {
      box.q.pop_front();
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  };

  for (; batch > 0 && left >= box.q.front().frame.size(); --batch) {
    left -= box.q.front().frame.size();
    pop_head();
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  if (batch > 0) {
    if (broken) return fail_head();
    if (left > 0) {
      const std::vector<std::uint8_t>& frame = box.q.front().frame;
      sock.rest.assign(frame.begin() + static_cast<std::ptrdiff_t>(left),
                       frame.end());
      sock.rest_of = &box;
      box.pinned = true;
      pop_head();
    }
    return true;
  }
  if (fault == ChaosController::SockFault::kTear) {
    // Torn frame: write a truncated prefix, then kill the connection. The
    // peer sees a short read mid-frame and drops the connection; the frame
    // is consumed (its bytes went out) — liveness comes from the
    // retransmission layer, not replay.
    const std::vector<std::uint8_t>& frame = box.q.front().frame;
    (void)!::send(sock.fd, frame.data(), frame.size() / 2,
                  MSG_DONTWAIT | MSG_NOSIGNAL);
    kill(sock);
    pop_head();
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // A reset strikes before the frame hits the wire: the frame is intact,
  // so it is eligible for replay on a new connection.
  if (fault == ChaosController::SockFault::kReset) return fail_head();
  return false;
}

void TcpTransport::drop_queue(Outbox& box) {
  frames_dropped_.fetch_add(box.q.size(), std::memory_order_relaxed);
  box.q.clear();
  sync_depth(box);
}

void TcpTransport::start_dial(ProcessId dest, Outbox& box) {
  if (rt_.simulator().now() < box.down_until || !book_ ||
      !book_->find(dest)) {
    drop_queue(box);  // down, or not a published (dialable) process
    return;
  }
  // Destinations connected before get the small budget: the generous one
  // covers only the startup race. A suspected peer gets a single cheap
  // attempt: spending a budget on a peer the detector already condemned
  // would only delay its fast-fails.
  box.dial_budget =
      box.known ? opt_.redial_attempts : opt_.dial_attempts;
  if (detector_ && detector_->suspected(dest, NodeRuntime::unix_now_us())) {
    box.dial_budget = 1;
  }
  box.dial_attempt = 0;
  if (box.dial_budget > 0) {
    dial_once(dest, box);
  } else {
    dial_failed(dest, box);
  }
}

void TcpTransport::dial_once(ProcessId dest, Outbox& box) {
  ++box.dial_attempt;
  const std::optional<Endpoint> ep = book_->find(dest);
  sockaddr_in addr{};
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0 || !ep || !to_sockaddr(ep->host, ep->port, addr) ||
      (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
       errno != EINPROGRESS)) {
    if (fd >= 0) ::close(fd);
    dial_failed(dest, box);
    return;
  }
  // Connected or not, the outcome arrives as EPOLLOUT.
  auto sock = std::make_shared<Sock>(fd);
  sock->token = rt_.watch(fd, EPOLLOUT, [this, dest, sock](std::uint32_t) {
    on_dialed(dest, sock);
  });
  box.dialing = std::move(sock);
}

void TcpTransport::on_dialed(ProcessId dest,
                             const std::shared_ptr<Sock>& sock) {
  Outbox& box = outbox(dest);
  box.dialing.reset();
  rt_.unwatch(sock->fd, sock->token);
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(sock->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    dial_failed(dest, box);
    return;
  }
  // A completed TCP handshake is affirmative evidence the peer is back
  // (its listener answered), so heal any standing suspicion now rather
  // than waiting for the first reply frame.
  if (detector_) detector_->note_receive(dest, NodeRuntime::unix_now_us());
  adopt(sock);
  box.route = sock;
  box.known = true;
  kick(dest, box);
}

void TcpTransport::dial_failed(ProcessId dest, Outbox& box) {
  if (box.dial_attempt < box.dial_budget) {
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(dest) << 32) ^
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
    const int ms = jittered_dial_delay_ms(
        opt_.dial_retry_ms, opt_.dial_retry_jitter_pct, salt, box.dial_attempt);
    box.retry_armed = true;
    rt_.simulator().schedule_after(
        static_cast<SimDuration>(ms) * 1'000,
        [this, alive = std::weak_ptr<void>(alive_), dest, &box] {
          if (alive.expired()) return;
          box.retry_armed = false;
          dial_once(dest, box);
        });
    return;
  }
  if (detector_) {
    detector_->note_dial_failure(dest, NodeRuntime::unix_now_us());
  }
  box.down_until = rt_.simulator().now() +
                   static_cast<SimDuration>(opt_.down_ms) * 1'000;
  drop_queue(box);
}

void TcpTransport::adopt(const std::shared_ptr<Sock>& sock) {
  set_nodelay(sock->fd);
  sock->token = rt_.watch(sock->fd, EPOLLIN, [this, sock](std::uint32_t ev) {
    on_ready(sock, ev);
  });
  conns_.push_back(sock);
}

void TcpTransport::on_accept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      adopt(std::make_shared<Sock>(fd));
    } else if (errno != EINTR && errno != ECONNABORTED) {
      return;
    }
  }
}

void TcpTransport::on_ready(const std::shared_ptr<Sock>& sock,
                            std::uint32_t events) {
  if (sock->dead) return;
  const bool writable = (events & EPOLLOUT) != 0;
  if (writable) {
    set_want_out(*sock, false);
    // Finish the pinned tail first, whether or not frames queue behind it.
    if (sock->rest_of != nullptr && write_queued(*sock, *sock->rest_of)) {
      set_want_out(*sock, true);
    }
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) && !sock->dead &&
      !read_frames(sock)) {
    kill(*sock);
  }
  // A drained or ended connection moves the queues waiting on it.
  if (writable || sock->dead) {
    for (auto& [dest, box] : outboxes_) kick(dest, *box);
  }
}

bool TcpTransport::read_frames(const std::shared_ptr<Sock>& sock) {
  Sock& s = *sock;
  for (;;) {
    if (s.in.size() - s.in_len < kMinRead) s.in.resize(s.in_len + kMinRead);
    const std::size_t space = s.in.size() - s.in_len;
    const ssize_t n = ::recv(s.fd, s.in.data() + s.in_len, space, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    s.in_len += static_cast<std::size_t>(n);
    std::size_t off = 0;
    while (s.in_len - off >= 4) {
      const std::uint8_t* h = s.in.data() + off;
      const std::uint32_t len = h[0] | h[1] << 8 | h[2] << 16 |
                                static_cast<std::uint32_t>(h[3]) << 24;
      if (len < wire::kFrameHeaderBytes - 4 || len > wire::kMaxFrameBytes) {
        return false;  // corrupt peer: drop the connection
      }
      if (s.in_len - off - 4 < len) {
        // Room for the whole frame once the consumed bytes move out.
        s.in.resize(std::max<std::size_t>(s.in.size(), 4 + len + kMinRead));
        break;
      }
      wire::DecodedFrame frame;
      try {
        frame = wire::decode_frame(s.in.data() + off + 4, len);
      } catch (const wire::WireError&) {
        return false;
      }
      off += 4 + len;
      // Stamp each frame with its own delivery time: the handlers of the
      // frames ahead of it may have run for a while.
      rt_.pump_locked();
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      if (detector_) {
        detector_->note_receive(frame.from, NodeRuntime::unix_now_us());
      }
      // Learn/refresh the route: this connection reaches frame.from.
      Outbox& peer = outbox(frame.from);
      if (!peer.route || peer.route->dead) peer.route = sock;
      peer.known = true;
      local_deliver(frame.from, frame.to, frame.body);
      // A handler's write may have killed this connection; the rest of its
      // input goes with it.
      if (s.dead) return true;
    }
    std::memmove(s.in.data(), s.in.data() + off, s.in_len - off);
    s.in_len -= off;
    // A recv that did not fill the buffer drained the socket.
    if (static_cast<std::size_t>(n) < space) return true;
  }
}

void TcpTransport::kill(Sock& sock) {
  if (sock.dead) return;
  sock.dead = true;
  rt_.unwatch(sock.fd, sock.token);
  if (sock.rest_of != nullptr) {
    sock.rest = {};
    sock.rest_of->pinned = false;
    sync_depth(*sock.rest_of);
    sock.rest_of = nullptr;
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  for (auto& [dest, box] : outboxes_) {
    if (box->route.get() == &sock) box->route.reset();
  }
  // Last: this may drop the final reference but the caller's.
  std::erase_if(conns_, [&](const auto& c) { return c.get() == &sock; });
}

void TcpTransport::set_want_out(Sock& sock, bool on) {
  if (sock.dead || sock.want_out == on) return;
  sock.want_out = on;
  rt_.rewatch(sock.fd, sock.token, on ? EPOLLIN | EPOLLOUT : EPOLLIN);
}

void TcpTransport::local_deliver(ProcessId from, ProcessId to,
                                 const sim::BodyPtr& body) {
  auto it = procs_.find(to);
  if (it == procs_.end() || it->second->crashed()) return;  // gone process
  sim::Process* p = it->second;
  sim::Message msg;
  msg.from = from;
  msg.to = to;
  msg.sent_at = rt_.simulator().now();
  msg.body = body;
  p->deliver(msg);
}

}  // namespace ares::net
