// Wire messages. Every protocol message derives from MessageBody and
// reports its payload size split into object-data bytes vs metadata bytes,
// matching the paper's cost model (communication cost counts data bytes,
// normalized by value size; metadata is ignored).
#pragma once

#include "common/types.hpp"

#include <cstdint>
#include <exception>
#include <memory>
#include <string_view>

namespace ares::sim {

class MessageBody {
 public:
  MessageBody() = default;
  /// A copy is measured afresh: its fields may still change.
  MessageBody(const MessageBody& /*other*/) {}
  MessageBody& operator=(const MessageBody& /*other*/) {
    metadata_bytes_ = 0;
    return *this;
  }
  virtual ~MessageBody() = default;

  /// Bytes of object data (values / coded elements) carried by this message.
  [[nodiscard]] virtual std::size_t data_bytes() const { return 0; }

  /// Bytes of metadata (tags, ids, status flags). Measured: frame header
  /// plus the encoded wire size of this message minus its object-data bytes
  /// (see net/wire.hpp), so sim-mode byte accounting matches what the socket
  /// transport actually puts on the wire. Falls back to a nominal 32 for
  /// types without a registered codec. The paper's cost accounting ignores
  /// these either way.
  ///
  /// Measured once per body and remembered (the sender, the network and the
  /// receiver all ask): a body must not change once it has been measured,
  /// i.e. once it is sent. Not synchronized — a body belongs to one node.
  [[nodiscard]] std::size_t metadata_bytes() const;

  /// Record the metadata size of a body decoded from a frame of known
  /// length, sparing metadata_bytes() its counting encode.
  void set_metadata_bytes(std::size_t n) const { metadata_bytes_ = n; }

  /// Stable name used for per-type network statistics.
  [[nodiscard]] virtual std::string_view type_name() const = 0;

 private:
  mutable std::size_t metadata_bytes_ = 0;  // 0 = not measured yet
};

using BodyPtr = std::shared_ptr<const MessageBody>;

/// The envelope the network delivers.
struct Message {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  SimTime sent_at = 0;
  BodyPtr body;
};

/// Base for request/response matching. `rpc_id` is assigned by the caller's
/// process; `(config, object)` identifies which configuration's state for
/// which atomic object the request addresses (servers host per-configuration
/// state, keyed internally per object).
class RpcRequest : public MessageBody {
 public:
  std::uint64_t rpc_id = 0;
  ConfigId config = kNoConfig;
  ObjectId object = kDefaultObject;

  /// Semifast piggyback: the highest tag the caller knows is already
  /// propagated to a quorum of the addressed (config, object). Servers
  /// raise their confirmed tag to it, so a client's own completed put-data
  /// is visible in the very next query round (see dap::DapServer).
  Tag confirmed_hint = kInitialTag;

  /// Successor propagation for fenced transfer reads: when valid, the
  /// server adopts this entry as its nextC pointer for (config, object)
  /// (same adopt-unless-finalized rule as put-config) before handling the
  /// request, so its reply echoes a valid next_c. Only reconfiguration
  /// transfer reads stamp it — it makes the transfer fence
  /// self-establishing instead of relying on every put-config quorum
  /// member staying reachable (see Dap::get_data_fenced).
  CseqEntry install_next;
};

class RpcReply : public MessageBody {
 public:
  std::uint64_t rpc_id = 0;

  /// Piggybacked configuration discovery: the replying server's nextC
  /// pointer for the (config, object) the request addressed (⊥ if no
  /// successor configuration is known). Stamped by Process::reply_to from
  /// the server's Process::next_config_hint, so *every* reply — DAP data
  /// phases, consensus, reconfiguration service — carries it for free.
  /// Clients that cache their configuration sequence use it to skip the
  /// explicit read-config round in the quiescent steady state.
  CseqEntry next_c;
};

/// Universal negative reply from a server that has garbage-collected the
/// addressed (config, object) lineage entry: the state a data-phase or
/// consensus request would touch no longer exists. Carries the finalized
/// successor the server retained as a tombstone; `next_c` is additionally
/// stamped by reply_to, so the caller can extend its cseq before retrying
/// through the normal Alg-4 traversal. Any server may send this in place of
/// the expected typed reply — QuorumCollector turns the first one into a
/// ConfigRetired exception on the waiting operation.
class RetiredReply : public RpcReply {
 public:
  ConfigId config = kNoConfig;
  ObjectId object = kDefaultObject;
  /// Finalized successor recorded at retirement (tombstone hint).
  CseqEntry successor;

  [[nodiscard]] std::string_view type_name() const override {
    return "storage.retired";
  }
};

/// Thrown out of a quorum wait when a server reports the addressed config
/// retired. Client operations catch it, fold the piggybacked successor into
/// their cseq, re-traverse the configuration sequence, and retry.
class ConfigRetired : public std::exception {
 public:
  ConfigRetired(ConfigId cfg, ObjectId obj) : config(cfg), object(obj) {}

  [[nodiscard]] const char* what() const noexcept override {
    return "configuration retired (state garbage-collected)";
  }

  ConfigId config = kNoConfig;
  ObjectId object = kDefaultObject;
};

/// Injected into every pending quorum wait by Process::abort_pending_waits
/// when an operation's deadline expires (or a caller cancels it). Coroutine
/// frames are eager and self-owning, so they cannot be destroyed from
/// outside; instead the abort propagates out of the suspended co_await like
/// any protocol exception, unwinding the frame through its normal
/// destructors — InflightGuards, cseq pins and lease state all release on
/// the way out. Store adapters catch it at the operation boundary and turn
/// it into a typed OpStatus.
class OpAborted : public std::exception {
 public:
  enum class Reason { kDeadline, kCancelled };

  explicit OpAborted(Reason r) : reason(r) {}

  [[nodiscard]] const char* what() const noexcept override {
    return reason == Reason::kDeadline ? "operation deadline expired"
                                       : "operation cancelled";
  }

  Reason reason = Reason::kDeadline;
};

}  // namespace ares::sim
