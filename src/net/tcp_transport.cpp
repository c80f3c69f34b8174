#include "net/tcp_transport.hpp"

#include "net/wire.hpp"
#include "sim/process.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ares::net {

namespace {

/// Send data[0..len) until all of it is out or send() stops short: an
/// error, or (MSG_DONTWAIT in `flags`) a full socket buffer. MSG_NOSIGNAL
/// so a peer that died mid-write yields EPIPE instead of killing the
/// process. Returns the bytes written; errno says why it stopped short.
std::size_t send_some(int fd, const std::uint8_t* data, std::size_t len,
                      int flags) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::send(fd, data + done, len - done, flags | MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) errno = EPIPE;
    break;
  }
  return done;
}

bool read_exact(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int dial(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
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

void TcpTransport::Sock::kill() {
  dead.store(true);
  ::shutdown(fd, SHUT_RDWR);
}

TcpTransport::TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book)
    : TcpTransport(rt, std::move(book), Options{}) {}

TcpTransport::TcpTransport(NodeRuntime& rt, std::shared_ptr<AddressBook> book,
                           Options opt)
    : rt_(rt), book_(std::move(book)), opt_(std::move(opt)) {}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::start() {
  running_.store(true);
  if (!opt_.listen) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.listen_port);
  if (::inet_pton(AF_INET, opt_.listen_host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("TcpTransport: bad listen host");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error(std::string("TcpTransport: bind/listen: ") +
                             std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread(&TcpTransport::accept_loop, this);
}

void TcpTransport::stop() {
  if (!running_.exchange(false)) return;

  // Wake the accept loop (on Linux shutdown() makes a blocked accept()
  // return), then the readers.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<Conn> conns;
  {
    std::lock_guard<std::mutex> lk(io_mu_);
    conns = std::move(conns_);
    conns_.clear();
    routes_.clear();
  }
  // Killing every connection also unblocks a sender stuck mid-write.
  for (auto& c : conns) c.sock->kill();
  for (auto& c : conns) {
    if (c.reader.joinable()) c.reader.join();
  }

  std::vector<Outbox*> boxes;
  {
    std::lock_guard<std::mutex> lk(out_mu_);
    for (auto& [id, box] : outboxes_) boxes.push_back(box.get());
  }
  for (Outbox* box : boxes) {
    {
      std::lock_guard<std::mutex> lk(box->mu);
      box->stop = true;
    }
    box->cv.notify_all();
    if (box->th.joinable()) box->th.join();
    std::lock_guard<std::mutex> lk(box->mu);
    box->q.clear();
    box->pinned.reset();
  }
  // The last references to the connections drop here, closing their fds.
}

void TcpTransport::register_process(sim::Process& p) {
  std::lock_guard<std::mutex> lk(procs_mu_);
  procs_[p.id()] = &p;
}

void TcpTransport::unregister_process(ProcessId id) {
  std::lock_guard<std::mutex> lk(procs_mu_);
  procs_.erase(id);
}

void TcpTransport::send(ProcessId from, ProcessId to, sim::BodyPtr body) {
  // Same-node shortcut: a co-hosted destination is reached through the
  // node's own event queue (send() always runs under the node lock with
  // Simulator::current() set, so post() is safe here).
  {
    std::lock_guard<std::mutex> lk(procs_mu_);
    if (procs_.contains(to)) {
      rt_.simulator().post(
          [this, from, to, body] { local_deliver(from, to, body); });
      return;
    }
  }
  if (!running_.load()) return;  // crashed/stopped node: frames vanish
  enqueue(to, wire::encode_frame(from, to, *body));
}

void TcpTransport::atomic_broadcast(ProcessId from,
                                    std::vector<ProcessId> dests,
                                    sim::BodyPtr body) {
  // Approximation: per-destination sends (see sim::Transport — real
  // crash-stop networks have no all-or-none primitive).
  for (ProcessId d : dests) send(from, d, body);
}

void TcpTransport::enqueue(ProcessId to, std::vector<std::uint8_t> frame) {
  // Fast-fail frames to suspected peers (modulo the detector's probe
  // allowance) — dropped here is indistinguishable from dropped by the
  // network, which the protocols already tolerate, and it keeps a dead
  // peer's queue from soaking up memory and sender-thread time.
  if (detector_) {
    const SimTime now = NodeRuntime::unix_now_us();
    if (!detector_->allow_send(to, now)) {
      frames_fastfailed_.fetch_add(1, std::memory_order_relaxed);
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Arm the silence clock when the frame is handed to the transport, not
    // when a write succeeds: a peer whose connection died and never comes
    // back would otherwise be invisible to the timeout rule.
    detector_->note_send(to, now);
  }
  Outbox* box = nullptr;
  {
    std::lock_guard<std::mutex> lk(out_mu_);
    if (!running_.load()) return;
    auto& slot = outboxes_[to];
    if (!slot) slot = std::make_unique<Outbox>();
    box = slot.get();
  }
  std::unique_lock<std::mutex> lk(box->mu);
  if (box->stop) return;
  std::shared_ptr<Sock> sock;
  if (!box->writing && box->depth() == 0) sock = live_route(to);
  if (!sock) {
    queue_locked(to, *box, Queued{std::move(frame), 0}, /*front=*/false);
    return;
  }

  // Nothing is ahead of this frame and a connection is up: write it from
  // this thread without blocking. `writing` keeps every other frame for
  // `to` queued behind it meanwhile.
  box->writing = true;
  lk.unlock();
  WriteOutcome out = WriteOutcome::kBlocked;
  {
    // Never wait for the connection: its other user may be a sender
    // thread in a blocking write.
    std::unique_lock<std::mutex> wl(sock->write_mu, std::try_to_lock);
    if (wl.owns_lock() && sock->rest.empty()) {
      frames_inline_.fetch_add(1, std::memory_order_relaxed);
      out = write_frame(*sock, frame, /*blocking=*/false);
    }
  }
  lk.lock();
  box->writing = false;
  if (box->stop) return;
  if (out == WriteOutcome::kPartial) {
    box->pinned = std::move(sock);
  } else if (out == WriteOutcome::kBlocked || out == WriteOutcome::kFailed) {
    // The frame is still whole: it goes back to the head of the queue,
    // and a failed attempt counts against its replay budget.
    const int used = out == WriteOutcome::kFailed ? 1 : 0;
    queue_locked(to, *box, Queued{std::move(frame), used}, /*front=*/true);
  }
  // Frames queued behind this one while it was being written wait for
  // the sender too.
  if (box->depth() > 0) wake_sender_locked(to, *box);
}

void TcpTransport::queue_locked(ProcessId dest, Outbox& box, Queued item,
                                bool front) {
  if (front) {
    box.q.push_front(std::move(item));
  } else {
    box.q.push_back(std::move(item));
  }
  // Bounded queue: drop the OLDEST while over budget (see Options). A
  // pinned partial frame counts toward the depth but is never dropped:
  // its prefix is already on the wire.
  while (opt_.max_queue_frames > 0 && box.depth() > opt_.max_queue_frames &&
         !box.q.empty()) {
    box.q.pop_front();
    frames_dropped_overflow_.fetch_add(1, std::memory_order_relaxed);
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  wake_sender_locked(dest, box);
}

void TcpTransport::wake_sender_locked(ProcessId dest, Outbox& box) {
  if (box.stop) return;  // stop() joins only a thread that exists by then
  if (!box.th.joinable()) {
    box.th = std::thread(&TcpTransport::sender_loop, this, dest, &box);
  }
  box.cv.notify_one();
}

std::size_t TcpTransport::queue_depth(ProcessId dest) const {
  std::lock_guard<std::mutex> lk(out_mu_);
  auto it = outboxes_.find(dest);
  if (it == outboxes_.end()) return 0;
  std::lock_guard<std::mutex> qlk(it->second->mu);
  return it->second->depth();
}

void TcpTransport::sender_loop(ProcessId dest, Outbox* box) {
  std::unique_lock<std::mutex> lk(box->mu);
  for (;;) {
    box->cv.wait(lk, [&] {
      return box->stop || (!box->writing && box->depth() > 0);
    });
    if (box->stop) return;
    box->writing = true;
    std::shared_ptr<Sock> pinned = std::move(box->pinned);
    Queued item;
    if (!pinned) {
      item = std::move(box->q.front());
      box->q.pop_front();
    }
    lk.unlock();
    if (pinned) {
      std::lock_guard<std::mutex> wl(pinned->write_mu);
      (void)finish_rest_locked(*pinned);
    } else {
      send_queued(dest, std::move(item));
    }
    lk.lock();
    box->writing = false;
  }
}

void TcpTransport::send_queued(ProcessId dest, Queued item) {
  // Reconnect-and-replay: a frame whose write fails (or whose connection
  // is chaos-reset before the write) is re-offered to a freshly dialed
  // connection a bounded number of times before being dropped.
  for (int attempt = item.attempts; attempt <= opt_.write_replay_attempts;
       ++attempt) {
    auto sock = route_or_dial(dest);
    if (!sock) break;
    if (attempt > 0) {
      frames_replayed_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> wl(sock->write_mu);
    if (!finish_rest_locked(*sock)) continue;
    const WriteOutcome out = write_frame(*sock, item.frame, /*blocking=*/true);
    if (out == WriteOutcome::kSent || out == WriteOutcome::kTorn) return;
  }
  frames_dropped_.fetch_add(1, std::memory_order_relaxed);
}

TcpTransport::WriteOutcome TcpTransport::write_frame(
    Sock& sock, std::vector<std::uint8_t>& frame, bool blocking) {
  const int flags = blocking ? 0 : MSG_DONTWAIT;
  ChaosController::SockFault fault = ChaosController::SockFault::kNone;
  if (chaos_) fault = chaos_->sock_fault(NodeRuntime::unix_now_us());
  if (fault == ChaosController::SockFault::kTear) {
    // Torn frame: write a truncated prefix, then kill the connection. The
    // peer sees a short read mid-frame and drops the connection; the frame
    // is consumed (its bytes went out) — liveness comes from the
    // retransmission layer, not replay.
    (void)send_some(sock.fd, frame.data(), frame.size() / 2, flags);
    sock.kill();
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return WriteOutcome::kTorn;
  }
  if (fault == ChaosController::SockFault::kReset) {
    // Connection reset before the frame hit the wire: the frame is still
    // intact, so it is eligible for replay on a new connection.
    sock.kill();
    return WriteOutcome::kFailed;
  }
  const std::size_t n = send_some(sock.fd, frame.data(), frame.size(), flags);
  if (n == frame.size()) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    return WriteOutcome::kSent;
  }
  if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    if (n == 0) return WriteOutcome::kBlocked;
    sock.rest.assign(frame.begin() + static_cast<std::ptrdiff_t>(n),
                     frame.end());
    return WriteOutcome::kPartial;
  }
  // The peer discards a frame cut short by a dead connection, so the whole
  // frame may be replayed on a new one.
  sock.kill();
  return WriteOutcome::kFailed;
}

bool TcpTransport::finish_rest_locked(Sock& sock) {
  if (sock.rest.empty()) return true;
  const bool ok = send_some(sock.fd, sock.rest.data(), sock.rest.size(), 0) ==
                  sock.rest.size();
  sock.rest = {};
  if (ok) {
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  sock.kill();
  frames_dropped_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::shared_ptr<TcpTransport::Sock> TcpTransport::live_route(ProcessId dest) {
  std::lock_guard<std::mutex> lk(io_mu_);
  auto it = routes_.find(dest);
  if (it == routes_.end() || it->second->dead.load()) return nullptr;
  return it->second;
}

std::shared_ptr<TcpTransport::Sock> TcpTransport::route_or_dial(
    ProcessId dest) {
  bool had_route = false;
  {
    std::lock_guard<std::mutex> lk(io_mu_);
    auto it = routes_.find(dest);
    if (it != routes_.end()) {
      if (!it->second->dead.load()) return it->second;
      routes_.erase(it);
    }
    // "Previously connected" must survive the reader thread erasing a dead
    // route, or the generous first-dial budget re-applies to a crashed
    // peer and suspicion latches seconds late (see known_peers_).
    had_route = known_peers_.contains(dest);
    auto dit = down_until_.find(dest);
    if (dit != down_until_.end() &&
        std::chrono::steady_clock::now() < dit->second) {
      return nullptr;
    }
  }
  std::optional<Endpoint> ep = book_ ? book_->find(dest) : std::nullopt;
  if (!ep) return nullptr;  // only published processes can be dialed

  // A suspected peer gets a single cheap attempt: spending the full dial
  // budget on a peer the detector already condemned would stall this
  // sender thread (and, across clients, synchronize a reconnect storm).
  int attempts = had_route ? opt_.redial_attempts : opt_.dial_attempts;
  if (detector_ && detector_->suspected(dest, NodeRuntime::unix_now_us())) {
    attempts = 1;
  }
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(dest) << 32) ^
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  for (int i = 0; i < attempts && running_.load(); ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          jittered_dial_delay_ms(opt_.dial_retry_ms, opt_.dial_retry_jitter_pct,
                                 salt, i)));
    }
    const int fd = dial(ep->host, ep->port);
    if (fd < 0) continue;
    auto sock = adopt_fd(fd);
    if (!sock) {
      ::close(fd);
      return nullptr;
    }
    // A completed TCP handshake is affirmative evidence the peer is back
    // (its listener answered), so heal any standing suspicion now rather
    // than waiting for the first reply frame.
    if (detector_) detector_->note_receive(dest, NodeRuntime::unix_now_us());
    std::lock_guard<std::mutex> lk(io_mu_);
    routes_[dest] = sock;
    known_peers_.insert(dest);
    return sock;
  }
  if (detector_) {
    detector_->note_dial_failure(dest, NodeRuntime::unix_now_us());
  }
  std::lock_guard<std::mutex> lk(io_mu_);
  down_until_[dest] = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(opt_.down_ms);
  return nullptr;
}

std::shared_ptr<TcpTransport::Sock> TcpTransport::adopt_fd(int fd) {
  set_nodelay(fd);
  std::lock_guard<std::mutex> lk(io_mu_);
  if (!running_.load()) return nullptr;
  // Reap the readers of ended connections, so resets and redials leave no
  // thread or (once the last reference drops) fd behind.
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->sock->reader_done) {
      it->reader.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  auto sock = std::make_shared<Sock>(fd);
  conns_.push_back(
      Conn{sock, std::thread(&TcpTransport::reader_loop, this, sock)});
  return sock;
}

void TcpTransport::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (running_.load() && (errno == EINTR || errno == ECONNABORTED)) {
        continue;
      }
      return;
    }
    if (adopt_fd(fd) == nullptr) {
      ::close(fd);
      return;
    }
  }
}

void TcpTransport::reader_loop(std::shared_ptr<Sock> sock) {
  std::vector<std::uint8_t> buf;
  for (;;) {
    std::uint8_t hdr[4];
    if (!read_exact(sock->fd, hdr, sizeof(hdr))) break;
    const std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                              static_cast<std::uint32_t>(hdr[1]) << 8 |
                              static_cast<std::uint32_t>(hdr[2]) << 16 |
                              static_cast<std::uint32_t>(hdr[3]) << 24;
    if (len < wire::kFrameHeaderBytes - 4 || len > wire::kMaxFrameBytes) break;
    buf.resize(len);
    if (!read_exact(sock->fd, buf.data(), len)) break;

    wire::DecodedFrame frame;
    try {
      frame = wire::decode_frame(buf.data(), len);
    } catch (const wire::WireError&) {
      break;  // corrupt peer: drop the connection
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (detector_) {
      detector_->note_receive(frame.from, NodeRuntime::unix_now_us());
    }

    // Learn/refresh the route: this connection reaches frame.from.
    {
      std::lock_guard<std::mutex> lk(io_mu_);
      auto it = routes_.find(frame.from);
      if (it == routes_.end() || it->second->dead.load()) {
        routes_[frame.from] = sock;
      }
      known_peers_.insert(frame.from);
    }
    rt_.run([this, &frame] { local_deliver(frame.from, frame.to, frame.body); });
  }
  sock->kill();
  std::lock_guard<std::mutex> lk(io_mu_);
  for (auto it = routes_.begin(); it != routes_.end();) {
    it = it->second == sock ? routes_.erase(it) : std::next(it);
  }
  sock->reader_done = true;
}

void TcpTransport::local_deliver(ProcessId from, ProcessId to,
                                 const sim::BodyPtr& body) {
  sim::Process* p = nullptr;
  {
    std::lock_guard<std::mutex> lk(procs_mu_);
    auto it = procs_.find(to);
    if (it != procs_.end()) p = it->second;
  }
  if (p == nullptr || p->crashed()) return;  // late frame for a gone process
  sim::Message msg;
  msg.from = from;
  msg.to = to;
  msg.sent_at = rt_.simulator().now();
  msg.body = body;
  p->deliver(msg);
}

}  // namespace ares::net
