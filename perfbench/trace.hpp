// In-memory spans recorded by the benchmark around its calls into the
// program's layers. Each client thread owns one SpanLog (no locking); the
// logs are written out once the run ends.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root (operation) span
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Span ids are unique across logs: the owner index fills the top bits.
  explicit SpanLog(std::uint64_t owner) : next_id_((owner + 1) << 40) {}

  std::uint64_t add(std::uint64_t parent, const char* name,
                    std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{++next_id_, parent, name, start_ns, end_ns});
    return next_id_;
  }

  /// One JSON object per line.
  void write_jsonl(std::ostream& os) const {
    for (const Span& s : spans_) {
      os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
         << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
