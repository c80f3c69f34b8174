// Wire codec for the socket transport: a stable binary encoding for every
// protocol message (ABD / TREAS / LDR / ARES reconfiguration / Paxos / DAP
// batches). Each registered MessageBody subclass gets a stable u16 type id
// and a bidirectional field serializer; frames are length-prefixed:
//
//   u32 length (bytes after this field) | u32 from | u32 to | u16 type id |
//   payload
//
// All integers are little-endian on the wire. Decoding is strict: a payload
// that is truncated, carries trailing bytes, or names an unknown type id
// raises WireError (TcpTransport drops the connection).
//
// The codec also serves the cost model: metadata_bytes() below measures a
// message's real framing + metadata size (encoded size minus object-data
// bytes), which sim::MessageBody::metadata_bytes() reports — so byte
// accounting is identical across the sim and socket backends by
// construction. A decoded body takes that size from its frame length.
#pragma once

#include "common/types.hpp"
#include "sim/message.hpp"

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace ares::net::wire {

/// Decode-side failure: truncated payload, trailing bytes, unknown type id,
/// or an over-cap length field.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bytes of frame header per message: u32 length + u32 from + u32 to +
/// u16 type id.
inline constexpr std::size_t kFrameHeaderBytes = 14;

/// Hard cap on the frame length field, guarding against corrupt or hostile
/// length prefixes (a 1 MB value in a 16-wide batch is still well under it).
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024 * 1024;

[[nodiscard]] bool is_registered(std::string_view type_name);

/// Stable wire id of a registered type. Throws WireError if unknown.
[[nodiscard]] std::uint16_t type_id(std::string_view type_name);

/// Every registered type name, in id order (test coverage checks compare
/// this against their generator set so no type can be silently forgotten).
[[nodiscard]] std::vector<std::string_view> registered_type_names();

/// Encode just the payload (no frame header). Throws if unregistered.
[[nodiscard]] std::vector<std::uint8_t> encode_payload(
    const sim::MessageBody& body);

/// Encoded payload size without materializing bytes (counting mode).
[[nodiscard]] std::size_t payload_size(const sim::MessageBody& body);

/// Decode a payload for type `id`. Throws WireError on unknown id, on
/// truncation, and on trailing (over-length) bytes.
[[nodiscard]] sim::BodyPtr decode_payload(std::uint16_t id,
                                          const std::uint8_t* data,
                                          std::size_t len);

/// Encode a full frame, length prefix included.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    ProcessId from, ProcessId to, const sim::MessageBody& body);

struct DecodedFrame {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  sim::BodyPtr body;
};

/// Decode the frame bytes *after* the u32 length prefix.
[[nodiscard]] DecodedFrame decode_frame(const std::uint8_t* data,
                                        std::size_t len);

/// Measured metadata bytes of `body`: frame header + encoded payload size
/// minus the message's object-data bytes. Falls back to the nominal 32 for
/// unregistered types.
[[nodiscard]] std::size_t metadata_bytes(const sim::MessageBody& body);

}  // namespace ares::net::wire
