#include "sim/message.hpp"

#include "net/wire.hpp"

namespace ares::sim {

std::size_t MessageBody::metadata_bytes() const {
  if (metadata_bytes_ == 0) metadata_bytes_ = net::wire::metadata_bytes(*this);
  return metadata_bytes_;
}

}  // namespace ares::sim
