// A bare TCP peer for transport-level tests: it listens on 127.0.0.1,
// accepts any number of connections and decodes every frame they carry
// with the wire codec. A peer constructed stalled accepts but reads
// nothing until start_reading(), so a sender's socket buffers fill up.
//
// A frame cut short by its connection's end (a torn frame) is what the
// transport's own reader drops too, so it is not counted; a complete
// frame that fails to decode, or a length field no sender would write,
// is counted as corrupt.
#pragma once

#include "dap/messages.hpp"
#include "net/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ares {

class RawPeer {
 public:
  explicit RawPeer(bool reading) : reading_(reading) {
    lfd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t alen = sizeof(addr);
    if (lfd_ < 0 ||
        ::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd_, 16) != 0 ||
        ::getsockname(lfd_, reinterpret_cast<sockaddr*>(&addr), &alen) != 0) {
      throw std::runtime_error("RawPeer: cannot listen");
    }
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~RawPeer() {
    stop_.store(true);
    ::shutdown(lfd_, SHUT_RDWR);
    acceptor_.join();
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (auto& t : readers_) t.join();
    for (int fd : fds_) ::close(fd);
    ::close(lfd_);
  }

  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  void start_reading() { reading_.store(true); }

  /// Every frame that decoded, in arrival order.
  [[nodiscard]] std::vector<net::wire::DecodedFrame> frames() const {
    std::lock_guard<std::mutex> lk(mu_);
    return frames_;
  }

  [[nodiscard]] std::size_t corrupt() const { return corrupt_.load(); }

  /// Poll until at least `n` frames decoded; false on timeout.
  bool wait_for(std::size_t n, std::chrono::milliseconds timeout) const {
    const auto end = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < end) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (frames_.size() >= n) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

 private:
  void accept_loop() {
    for (;;) {
      const int fd = ::accept(lfd_, nullptr, nullptr);
      if (fd < 0) return;
      // Only this thread grows fds_/readers_; the destructor reads them
      // after joining it.
      fds_.push_back(fd);
      readers_.emplace_back([this, fd] { read_loop(fd); });
    }
  }

  static bool read_exact(int fd, std::uint8_t* data, std::size_t len) {
    while (len > 0) {
      const ssize_t n = ::recv(fd, data, len, 0);
      if (n <= 0) return false;
      data += n;
      len -= static_cast<std::size_t>(n);
    }
    return true;
  }

  void read_loop(int fd) {
    while (!reading_.load() && !stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<std::uint8_t> buf;
    for (;;) {
      std::uint8_t hdr[4];
      if (!read_exact(fd, hdr, sizeof(hdr))) return;
      const std::uint32_t len = static_cast<std::uint32_t>(hdr[0]) |
                                static_cast<std::uint32_t>(hdr[1]) << 8 |
                                static_cast<std::uint32_t>(hdr[2]) << 16 |
                                static_cast<std::uint32_t>(hdr[3]) << 24;
      if (len < net::wire::kFrameHeaderBytes - 4 ||
          len > net::wire::kMaxFrameBytes) {
        ++corrupt_;
        return;
      }
      buf.resize(len);
      if (!read_exact(fd, buf.data(), len)) return;  // torn: not corrupt
      try {
        auto frame = net::wire::decode_frame(buf.data(), len);
        std::lock_guard<std::mutex> lk(mu_);
        frames_.push_back(std::move(frame));
      } catch (const net::wire::WireError&) {
        ++corrupt_;
        return;
      }
    }
  }

  int lfd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> reading_;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::vector<int> fds_;
  std::vector<std::thread> readers_;
  mutable std::mutex mu_;
  std::vector<net::wire::DecodedFrame> frames_;
  std::atomic<std::size_t> corrupt_{0};
};

/// A frame body that names itself: one PutBatchReq item whose object id is
/// `n` and whose value is `size` bytes of (n & 0xFF).
inline sim::BodyPtr numbered_body(ObjectId n, std::size_t size) {
  auto body = std::make_shared<dap::PutBatchReq>();
  dap::BatchPutItem item;
  item.object = n;
  item.value =
      std::make_shared<Value>(size, static_cast<std::uint8_t>(n & 0xFF));
  body->items.push_back(item);
  return body;
}

/// The number a numbered_body frame carries, or kNoObject when the frame
/// is not one or its value bytes are damaged.
inline ObjectId frame_number(const net::wire::DecodedFrame& f) {
  const auto* b = dynamic_cast<const dap::PutBatchReq*>(f.body.get());
  if (b == nullptr || b->items.size() != 1 || !b->items[0].value) {
    return kNoObject;
  }
  const auto& item = b->items[0];
  for (std::uint8_t byte : *item.value) {
    if (byte != static_cast<std::uint8_t>(item.object & 0xFF)) return kNoObject;
  }
  return item.object;
}

}  // namespace ares
