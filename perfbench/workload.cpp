#include "workload.hpp"

#include "stats.hpp"
#include "trace.hpp"

#include "abd/messages.hpp"
#include "codec/codec.hpp"
#include "common/random.hpp"
#include "dap/messages.hpp"
#include "harness/workload.hpp"
#include "net/cluster.hpp"
#include "net/wire.hpp"
#include "treas/messages.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

const std::vector<WorkloadSpec>& workloads() {
  using ares::dap::Protocol;
  static const std::vector<WorkloadSpec> all = {
      {"abd-256b", Protocol::kAbd, 1, 256, 1000, 0.3, 0, 1},
      {"treas-64k", Protocol::kTreas, 3, 64 * 1024, 256, 0.3, 0, 1},
      {"abd-4k-batch", Protocol::kAbd, 1, 4096, 2000, 0.1, 0.99, 8},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

using namespace ares;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kServers = 5;
constexpr std::size_t kClients = 2;
constexpr std::size_t kSetupRepeats = 5;
constexpr double kWarmupS = 1.0;
/// End-to-end rates are medians over slices of this length, latency
/// percentiles medians over blocks of this many consecutive calls (enough
/// for 10 samples beyond p99 in every block).
constexpr double kSliceS = 1.0;
/// Slices in which the hypervisor stole more than this share of the host's
/// CPU time are left out of the end-to-end figures, unless that would leave
/// fewer than kMinQuietSlices (see stats.hpp quiet_slices): on a shared host
/// a stolen second measures the neighbours, not the program.
constexpr double kMaxSliceSteal = 0.02;
constexpr std::size_t kMinQuietSlices = 10;
constexpr std::size_t kLatencyBlock = 1000;
/// peak_rss_mb is read once the workload has completed this many ops per
/// object: a fixed amount of work, so the figure does not grow with
/// throughput (the cluster's history recorder keeps a record per op), and
/// enough writes (about 5 per object) that most TREAS Lists hold their δ+1
/// coded elements.
constexpr std::uint64_t kRssOpsPerObject = 16;
constexpr auto kQueueSamplePeriod = std::chrono::milliseconds(1);
constexpr ProcessId kFirstClientId = 100;  // NetCluster's client numbering

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Independent generator stream `stream` of the run's seed.
Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0xD1B54A32D192ED03ULL);
  return Rng(splitmix64(s));
}

/// A value of `size` pseudo-random bytes drawn from `fill_seed`. Filling
/// and digesting run inside the closed loop, so both go a word at a time
/// (ares::make_test_value and checker::hash_value go byte by byte, which
/// costs several percent of a 64 KB TREAS op).
ValuePtr make_fill(std::size_t size, std::uint64_t fill_seed) {
  auto v = std::make_shared<Value>(size);
  for (std::size_t i = 0; i < size; i += 8) {
    const std::uint64_t w = splitmix64(fill_seed);
    std::memcpy(v->data() + i, &w, std::min<std::size_t>(8, size - i));
  }
  return v;
}

/// 64-bit digest of a value.
std::uint64_t digest(const ValuePtr& v) {
  if (!v) return 0;
  std::uint64_t h = 0xCBF29CE484222325ULL ^ v->size();
  std::size_t i = 0;
  for (; i + 8 <= v->size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, v->data() + i, 8);
    h = (h ^ w) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  for (; i < v->size(); ++i) h = (h ^ (*v)[i]) * 0x100000001B3ULL;
  return h;
}

enum class Kind : std::uint8_t { kRead, kWrite };

/// Replay of one call's codec and wire work (traced calls only).
struct ReplayRec {
  std::uint32_t encodes = 0;
  std::uint32_t decodes = 0;
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
  std::uint32_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::int64_t wire_encode_ns = 0;
  std::int64_t wire_decode_ns = 0;

  [[nodiscard]] std::int64_t children_ns() const {
    return encode_ns + decode_ns + wire_encode_ns + wire_decode_ns;
  }
};

/// One blocking call into NetCluster: a scalar read or write, or a
/// read_batch of several keys. Kept compact: one is stored per call, and
/// the benchmark's own memory shows in peak_rss_mb.
struct CallRec {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t rounds = 0;  // OpResult::metrics summed over members
  std::uint32_t messages = 0;
  std::uint32_t bytes = 0;
  std::uint32_t elided = 0;
  std::int32_t replay = -1;  // index into ClientLog::replays, or -1
  std::uint16_t members = 0;
  std::uint16_t ok = 0;
  Kind kind = Kind::kRead;
  bool traced = false;

  [[nodiscard]] double latency_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// A tag the cluster returned for an object, with the digest of the value
/// written under it (writes) or read with it (reads).
struct TagRec {
  ObjectId obj = 0;
  Tag tag;
  std::uint64_t digest = 0;
};

struct ClientLog {
  explicit ClientLog(std::size_t client) : spans(client) {}

  OpTally tally;  // every member op, pre-writes included
  std::vector<CallRec> calls;
  std::vector<ReplayRec> replays;
  std::vector<TagRec> writes;
  std::vector<TagRec> reads;
  SpanLog spans;
  std::exception_ptr error;  // what ended the client's loop early, if any
};

struct Shared {
  Shared(const WorkloadSpec& s, net::NetCluster& c)
      : spec(s), cluster(c), writes_per_obj(s.objects) {
    for (auto& n : writes_per_obj) n.store(1);  // the pre-write
  }

  [[nodiscard]] std::uint64_t rss_at_ops() const {
    return kRssOpsPerObject * spec.objects;
  }

  const WorkloadSpec& spec;
  net::NetCluster& cluster;
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  std::atomic<std::uint64_t> ops_done{0};
  double rss_mb = 0;  // peak RSS when ops_done reached rss_at_ops()
  /// Completed writes per object: the length of the TREAS List a server
  /// returns, for the wire replay.
  std::vector<std::atomic<std::uint32_t>> writes_per_obj;
};

template <class Req>
std::shared_ptr<Req> request(ObjectId obj) {
  auto r = std::make_shared<Req>();
  r->rpc_id = 1;
  r->config = 0;
  r->object = obj;
  return r;
}

using Bodies = std::pair<sim::BodyPtr, sim::BodyPtr>;  // request, reply

/// Replays one call's codec and wire work on this thread, right after the
/// call: the codec encodes and decodes the call's own values, and
/// wire::encode_frame/decode_frame run on request and reply bodies shaped
/// like the protocol's messages for each quorum round the call took.
class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, std::size_t client, SpanLog& spans)
      : spec_(spec),
        self_(kFirstClientId + static_cast<ProcessId>(client)),
        spans_(spans),
        codec_(codec::make_codec(kServers, spec.k)) {}

  ReplayRec replay(const CallRec& call, std::uint64_t op_span,
                   const std::vector<OpResult>& results,
                   const ValuePtr& written, const Shared& sh) {
    ReplayRec rec;
    // Codec: a write encodes its value; a read decodes the value it
    // returned from k coded elements, and re-encodes it when the call took
    // a second (write-back) round.
    std::vector<codec::Fragment> frags;
    for (const OpResult& r : results) {
      const ValuePtr& v = call.kind == Kind::kWrite ? written : r.value;
      if (!v) continue;
      if (call.kind == Kind::kWrite) {
        timed_codec(rec.encode_ns, rec.encodes, op_span, "codec.encode",
                    [&] { frags = codec_->encode(*v); });
        continue;
      }
      frags = codec_->encode(*v);  // the elements a reader would receive
      timed_codec(rec.decode_ns, rec.decodes, op_span, "codec.decode", [&] {
        if (!codec_->decode(frags)) throw std::logic_error("decode failed");
      });
      if (call.rounds >= 2) {
        timed_codec(rec.encode_ns, rec.encodes, op_span, "codec.encode",
                    [&] { frags = codec_->encode(*v); });
      }
    }
    if (results.empty()) return rec;
    for (std::uint32_t round = 0; round < call.rounds; ++round) {
      const Bodies b = bodies(call, round, results, written, frags, sh);
      replay_frame(rec, op_span, *b.first, self_, 0);
      replay_frame(rec, op_span, *b.second, 0, self_);
    }
    return rec;
  }

 private:
  template <class Fn>
  void timed_codec(std::int64_t& acc, std::uint32_t& calls,
                   std::uint64_t parent, const char* name, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    acc += t1 - t0;
    ++calls;
    spans_.add(parent, name, t0, t1);
  }

  void replay_frame(ReplayRec& rec, std::uint64_t parent,
                    const sim::MessageBody& body, ProcessId from,
                    ProcessId to) {
    const std::int64_t t0 = now_ns();
    const std::vector<std::uint8_t> bytes =
        net::wire::encode_frame(from, to, body);
    const std::int64_t t1 = now_ns();
    const net::wire::DecodedFrame back =
        net::wire::decode_frame(bytes.data() + 4, bytes.size() - 4);
    const std::int64_t t2 = now_ns();
    if (!back.body) throw std::logic_error("wire replay: empty decode");
    rec.wire_encode_ns += t1 - t0;
    rec.wire_decode_ns += t2 - t1;
    ++rec.frames;
    rec.frame_bytes += bytes.size();
    spans_.add(parent, "wire.encode", t0, t1);
    spans_.add(parent, "wire.decode", t1, t2);
  }

  [[nodiscard]] bool treas() const {
    return spec_.protocol == dap::Protocol::kTreas;
  }

  /// Bodies of quorum round `round`: round 0 is the query phase, round 1
  /// the put phase (a read's write-back), later rounds metadata-only.
  Bodies bodies(const CallRec& call, std::uint32_t round,
                const std::vector<OpResult>& results, const ValuePtr& written,
                const std::vector<codec::Fragment>& frags,
                const Shared& sh) const {
    const OpResult& r0 = results.front();
    const bool write = call.kind == Kind::kWrite;
    if (round >= 2 || (write && round == 0)) return tag_query(r0);
    if (results.size() > 1) {
      return round == 0 ? batch_query(results) : batch_put(results);
    }
    const ValuePtr& v = write ? written : r0.value;
    if (round == 1) return treas() ? treas_put(r0, frags) : abd_write(r0, v);
    return treas() ? treas_list(r0, frags, sh) : abd_query(r0, v);
  }

  [[nodiscard]] Bodies tag_query(const OpResult& r) const {
    if (treas()) {
      auto rep = std::make_shared<treas::QueryTagReply>();
      rep->tag = r.tag;
      return {request<treas::QueryTagReq>(r.object), rep};
    }
    auto rep = std::make_shared<abd::QueryTagReply>();
    rep->tag = r.tag;
    return {request<abd::QueryTagReq>(r.object), rep};
  }

  static Bodies abd_query(const OpResult& r, const ValuePtr& v) {
    auto rep = std::make_shared<abd::QueryReply>();
    rep->tag = r.tag;
    rep->value = v;
    rep->confirmed = r.tag;
    return {request<abd::QueryReq>(r.object), rep};
  }

  static Bodies abd_write(const OpResult& r, const ValuePtr& v) {
    auto req = request<abd::WriteReq>(r.object);
    req->tag = r.tag;
    req->value = v;
    return {req, std::make_shared<abd::WriteAck>()};
  }

  [[nodiscard]] Bodies treas_list(const OpResult& r,
                                  const std::vector<codec::Fragment>& frags,
                                  const Shared& sh) const {
    // One List entry per completed write of the object; coded elements
    // only on the δ+1 highest tags (the server's garbage collection).
    const std::size_t entries =
        std::max<std::uint32_t>(1, sh.writes_per_obj[r.object].load());
    const std::size_t with_frag =
        std::min(entries, sh.cluster.options().delta + 1);
    auto rep = std::make_shared<treas::QueryListReply>();
    rep->list.reserve(entries);
    for (std::size_t i = 0; i < entries; ++i) {
      treas::ListEntry e;
      e.tag = Tag{r.tag.z >= i ? r.tag.z - i : 0, r.tag.writer};
      if (i < with_frag && !frags.empty()) e.fragment = frags.front();
      rep->list.push_back(std::move(e));
    }
    rep->confirmed = r.tag;
    return {request<treas::QueryListReq>(r.object), rep};
  }

  static Bodies treas_put(const OpResult& r,
                          const std::vector<codec::Fragment>& frags) {
    auto req = request<treas::PutReq>(r.object);
    req->tag = r.tag;
    if (!frags.empty()) req->fragment = frags.front();
    return {req, std::make_shared<treas::PutAck>()};
  }

  static Bodies batch_query(const std::vector<OpResult>& results) {
    auto req = request<dap::QueryBatchReq>(results.front().object);
    auto rep = std::make_shared<dap::QueryBatchReply>();
    for (const OpResult& r : results) {
      req->objects.push_back(r.object);
      req->confirmed_hints.push_back(r.tag);
      dap::BatchQueryItem item;
      item.object = r.object;
      item.tag = r.tag;
      item.value = r.value;
      item.confirmed = r.tag;
      rep->items.push_back(std::move(item));
    }
    return {req, rep};
  }

  static Bodies batch_put(const std::vector<OpResult>& results) {
    auto req = request<dap::PutBatchReq>(results.front().object);
    auto rep = std::make_shared<dap::PutBatchReply>();
    for (const OpResult& r : results) {
      req->items.push_back(dap::BatchPutItem{r.object, r.tag, r.value});
      rep->next_cs.emplace_back();
    }
    return {req, rep};
  }

  const WorkloadSpec& spec_;
  ProcessId self_;
  SpanLog& spans_;
  std::shared_ptr<const codec::Codec> codec_;
};

std::vector<ObjectId> draw_distinct(const harness::KeyPicker& picker, Rng& rng,
                                    std::size_t n) {
  std::vector<ObjectId> keys;
  while (keys.size() < n) {
    const ObjectId k = picker.pick(rng);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

/// Folds a completed call's results into the client's log.
void account(ClientLog& log, CallRec& rec, const std::vector<ObjectId>& keys,
             const std::vector<OpResult>& results, const ValuePtr& written) {
  rec.members = static_cast<std::uint16_t>(keys.size());
  for (const OpResult& r : results) {
    rec.rounds += static_cast<std::uint32_t>(r.metrics.rounds);
    rec.messages += static_cast<std::uint32_t>(r.metrics.messages);
    rec.bytes += static_cast<std::uint32_t>(r.metrics.bytes);
    rec.elided += static_cast<std::uint32_t>(r.metrics.elided_rounds);
    if (!r.ok()) continue;
    ++rec.ok;
    if (rec.kind == Kind::kWrite) {
      log.writes.push_back(TagRec{r.object, r.tag, digest(written)});
    } else {
      log.reads.push_back(TagRec{r.object, r.tag, digest(r.value)});
    }
  }
  log.tally.add_call(rec.members, rec.ok);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One client's closed loop: the next call starts when the last returns.
void run_client(Shared& sh, std::size_t c, std::uint64_t seed,
                ClientLog& log) {
  const WorkloadSpec& spec = sh.spec;
  Rng rng = stream_rng(seed, 1 + c);
  const harness::KeyPicker picker(
      spec.objects,
      spec.zipf_s > 0 ? harness::KeyDistribution::kZipfian
                      : harness::KeyDistribution::kUniform,
      spec.zipf_s);
  Replayer replayer(spec, c, log.spans);
  while (!sh.stop.load(std::memory_order_relaxed)) {
    CallRec rec;
    rec.traced = sh.tracing.load(std::memory_order_relaxed);
    const bool is_write = rng.uniform01() < spec.write_frac;
    rec.kind = is_write ? Kind::kWrite : Kind::kRead;
    std::vector<ObjectId> keys;
    ValuePtr written;
    if (is_write) {
      keys.push_back(picker.pick(rng));
      written = make_fill(spec.value_size, rng.next_u64());
    } else if (spec.read_batch > 1) {
      keys = draw_distinct(picker, rng, spec.read_batch);
    } else {
      keys.push_back(picker.pick(rng));
    }
    std::vector<OpResult> results;
    rec.start_ns = now_ns();
    try {
      if (is_write) {
        results.push_back(sh.cluster.write(c, keys.front(), written));
      } else if (spec.read_batch > 1) {
        results = sh.cluster.read_batch(c, keys);
      } else {
        results.push_back(sh.cluster.read(c, keys.front()));
      }
    } catch (const std::exception&) {
      results.clear();  // the blocking surface gave up: every member failed
    }
    rec.end_ns = now_ns();
    account(log, rec, keys, results, written);
    if (is_write && rec.ok == 1) sh.writes_per_obj[keys.front()].fetch_add(1);
    const std::uint64_t before = sh.ops_done.fetch_add(rec.ok);
    if (before < sh.rss_at_ops() && before + rec.ok >= sh.rss_at_ops()) {
      sh.rss_mb = peak_rss_mb();  // exactly one thread crosses the mark
    }
    if (rec.traced) {
      const char* name = is_write          ? "op.write"
                         : keys.size() > 1 ? "op.read_batch"
                                           : "op.read";
      const std::uint64_t op_span =
          log.spans.add(0, name, rec.start_ns, rec.end_ns);
      rec.replay = static_cast<std::int32_t>(log.replays.size());
      log.replays.push_back(
          replayer.replay(rec, op_span, results, written, sh));
    }
    log.calls.push_back(rec);
  }
}

/// Thread entry: a failure stops every client and is rethrown after join.
void client_loop(Shared& sh, std::size_t c, std::uint64_t seed,
                 ClientLog& log) {
  try {
    run_client(sh, c, seed, log);
  } catch (...) {
    log.error = std::current_exception();
    sh.stop.store(true);
  }
}

/// Writes every object once, both clients in parallel on disjoint halves.
void prewrite(net::NetCluster& cluster, const WorkloadSpec& spec,
              std::uint64_t seed, std::vector<ClientLog>& logs) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng = stream_rng(seed, 1000 + c);
      for (ObjectId obj = static_cast<ObjectId>(c); obj < spec.objects;
           obj += kClients) {
        const ValuePtr v = make_fill(spec.value_size, rng.next_u64());
        CallRec rec;
        rec.kind = Kind::kWrite;
        std::vector<OpResult> results;
        try {
          results.push_back(cluster.write(c, obj, v));
        } catch (const std::exception&) {
        }
        account(logs[c], rec, {obj}, results, v);
      }
    });
  }
  for (auto& t : threads) t.join();
}

double tv_us(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
}

Usage sample_usage(net::NetCluster& cluster) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = tv_us(ru.ru_utime) + tv_us(ru.ru_stime);
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.frames_sent = cluster.total_frames_sent();
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    u.frames_dropped += cluster.server_transport(i).frames_dropped();
  }
  for (std::size_t c = 0; c < cluster.num_clients(); ++c) {
    u.frames_dropped += cluster.client_transport(c).frames_dropped();
  }
  u.retransmits = cluster.total_retransmits();
  return u;
}

/// Total frames waiting in every sender queue of the cluster.
std::size_t total_queue_depth(net::NetCluster& cluster) {
  std::size_t depth = 0;
  for (std::size_t c = 0; c < cluster.num_clients(); ++c) {
    for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
      depth += cluster.client_transport(c).queue_depth(
          static_cast<ProcessId>(i));
    }
  }
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    for (std::size_t c = 0; c < cluster.num_clients(); ++c) {
      depth += cluster.server_transport(i).queue_depth(
          kFirstClientId + static_cast<ProcessId>(c));
    }
  }
  return depth;
}

/// Host CPU ticks (steal, total) from /proc/stat; zeros if unavailable.
/// Steal is time the hypervisor ran something else while this machine's
/// CPUs wanted to run: the context line reports its share of the window so
/// runs slowed by an overloaded host can be told apart.
std::pair<std::uint64_t, std::uint64_t> host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t steal = 0, total = 0;
  for (int field = 1; field <= 8; ++field) {  // user .. steal
    std::uint64_t v = 0;
    if (!(in >> v)) return {0, 0};
    total += v;
    if (field == 8) steal = v;
  }
  return {steal, total};
}

/// Threads of this process (0 if /proc is unavailable).
std::size_t thread_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator()));
}

/// The calls of one measurement window, in completion order, and the
/// process counters sampled at the window's slice boundaries.
struct Window {
  struct Call {
    const CallRec* call;
    const ReplayRec* replay;  // null for untraced calls
  };
  std::vector<std::int64_t> marks_ns;  // slice boundaries, first to last
  std::vector<Usage> marks;            // counters at each boundary
  std::vector<bool> quiet;             // per slice: measured (quiet_slices)
  std::vector<Call> calls;
  OpTally tally;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(marks_ns.back() - marks_ns.front()) / 1e9;
  }
  [[nodiscard]] Usage usage() const {
    return window_delta(marks.front(), marks.back());
  }
  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(tally.completed) / seconds();
  }
  [[nodiscard]] bool in_quiet_slice(const Call& c) const {
    return quiet[slice_of(c.call->end_ns)];
  }
  /// Latencies of `kind` calls completing in quiet slices.
  [[nodiscard]] std::vector<double> latencies_us(Kind kind) const {
    std::vector<double> out;
    for (const Call& c : calls) {
      if (c.call->kind == kind && in_quiet_slice(c)) {
        out.push_back(c.call->latency_us());
      }
    }
    return out;
  }
  /// Index of the slice a call completing at `end_ns` falls in.
  [[nodiscard]] std::size_t slice_of(std::int64_t end_ns) const {
    const auto it = std::upper_bound(marks_ns.begin(), marks_ns.end(), end_ns);
    return static_cast<std::size_t>(it - marks_ns.begin()) - 1;
  }
  /// Per quiet slice: completed ops per second and CPU microseconds per op.
  void slice_rates(std::vector<double>& ops_per_s,
                   std::vector<double>& cpu_us_per_op) const {
    std::vector<std::uint64_t> done(marks_ns.size() - 1, 0);
    for (const Call& c : calls) done[slice_of(c.call->end_ns)] += c.call->ok;
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (!quiet[i]) continue;
      const double s =
          static_cast<double>(marks_ns[i + 1] - marks_ns[i]) / 1e9;
      ops_per_s.push_back(static_cast<double>(done[i]) / s);
      cpu_us_per_op.push_back(
          per_op(window_delta(marks[i], marks[i + 1]).cpu_us, done[i]));
    }
  }
};

Window collect(const std::vector<ClientLog>& logs,
               std::vector<std::int64_t> marks_ns, std::vector<Usage> marks,
               std::vector<bool> quiet, bool traced) {
  Window w;
  w.marks_ns = std::move(marks_ns);
  w.marks = std::move(marks);
  w.quiet = std::move(quiet);
  const std::int64_t lo = w.marks_ns.front();
  const std::int64_t hi = w.marks_ns.back();
  for (const ClientLog& log : logs) {
    for (const CallRec& c : log.calls) {
      if (c.end_ns < lo || c.end_ns >= hi || c.traced != traced) continue;
      const ReplayRec* r =
          c.replay >= 0 ? &log.replays[static_cast<std::size_t>(c.replay)]
                        : nullptr;
      w.calls.push_back(Window::Call{&c, r});
      w.tally.add_call(c.members, c.ok);
    }
  }
  std::sort(w.calls.begin(), w.calls.end(),
            [](const Window::Call& a, const Window::Call& b) {
              return a.call->end_ns < b.call->end_ns;
            });
  return w;
}

double pct_or_zero(const std::vector<double>& v, std::uint32_t pm) {
  return v.empty() ? 0.0 : percentile(v, pm);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_list(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    if (!out.empty()) out += ",";
    out += fmt(x);
  }
  return out;
}

void end_to_end(const Window& w, const Shared& sh, Report& rep) {
  const auto reads = w.latencies_us(Kind::kRead);
  const auto writes = w.latencies_us(Kind::kWrite);
  double bytes = 0;
  double attempted = 0;
  for (const Window::Call& c : w.calls) {
    if (!w.in_quiet_slice(c)) continue;
    bytes += static_cast<double>(c.call->bytes);
    attempted += c.call->members;
  }
  std::vector<double> slice_ops, slice_cpu;
  w.slice_rates(slice_ops, slice_cpu);
  auto blocked = [](const std::vector<double>& v, std::uint32_t pm) {
    return v.empty() ? 0.0 : blocked_percentile(v, pm, kLatencyBlock);
  };
  rep.metrics = {
      {"ops_per_s", median(slice_ops), "1/s"},
      {"read_p50_us", blocked(reads, kP50), "us"},
      {"read_p99_us", blocked(reads, kP99), "us"},
      {"write_p50_us", blocked(writes, kP50), "us"},
      {"write_p99_us", blocked(writes, kP99), "us"},
      {"cpu_us_per_op", median(slice_cpu), "us"},
      {"bytes_per_op", ratio(bytes, attempted), "B"},
      {"peak_rss_mb", sh.rss_mb > 0 ? sh.rss_mb : peak_rss_mb(), "MB"},
  };
  rep.detail.emplace_back("window_s", fmt(w.seconds()));
  rep.detail.emplace_back("slices", std::to_string(w.quiet.size()));
  rep.detail.emplace_back("quiet_slices", std::to_string(slice_ops.size()));
  rep.detail.emplace_back("window_ops", std::to_string(w.tally.completed));
  rep.detail.emplace_back("read_samples", std::to_string(reads.size()));
  rep.detail.emplace_back("write_samples", std::to_string(writes.size()));
  rep.detail.emplace_back(
      "read_blocks",
      std::to_string(block_sizes(reads.size(), kLatencyBlock).size()));
  rep.detail.emplace_back(
      "write_blocks",
      std::to_string(block_sizes(writes.size(), kLatencyBlock).size()));
  const bool tails = blocks_support(reads.size(), kP99, kLatencyBlock) &&
                     blocks_support(writes.size(), kP99, kLatencyBlock);
  rep.detail.emplace_back("p99_tail_supported", tails ? "true" : "false");
  rep.detail.emplace_back("failed_ops_frac", fmt(w.tally.failed_frac()));
  // A run too slow to reach the mark reports the peak of the whole run.
  rep.detail.emplace_back("rss_at_ops", std::to_string(sh.rss_at_ops()));
  rep.detail.emplace_back("rss_mark_reached", sh.rss_mb > 0 ? "true" : "false");
  rep.detail.emplace_back("slice_ops_per_s", fmt_list(slice_ops));
}

void per_layer(const Window& plain, const Window& w, double queue_depth_mean,
               std::size_t threads, Report& rep) {
  struct Sums {
    double members = 0, rounds = 0, calls = 0, codec_ns = 0;
  } rd, wr;
  double messages = 0, elided = 0, encode_ns = 0, decode_ns = 0;
  double encodes = 0, decodes = 0, frames = 0, frame_bytes = 0;
  double wire_enc_ns = 0, wire_dec_ns = 0;
  std::vector<double> read_self_us;
  for (const Window::Call& wc : w.calls) {
    const CallRec& c = *wc.call;
    const ReplayRec& r = *wc.replay;
    Sums& s = c.kind == Kind::kRead ? rd : wr;
    s.members += c.members;
    s.rounds += c.rounds;
    s.calls += 1;
    s.codec_ns += static_cast<double>(r.encode_ns + r.decode_ns);
    messages += c.messages;
    elided += c.elided;
    encode_ns += static_cast<double>(r.encode_ns);
    decode_ns += static_cast<double>(r.decode_ns);
    encodes += r.encodes;
    decodes += r.decodes;
    frames += r.frames;
    frame_bytes += static_cast<double>(r.frame_bytes);
    wire_enc_ns += static_cast<double>(r.wire_encode_ns);
    wire_dec_ns += static_cast<double>(r.wire_decode_ns);
    if (c.kind == Kind::kRead) {
      // Self time: the op span minus its codec and wire child spans.
      read_self_us.push_back(
          static_cast<double>(c.end_ns - c.start_ns - r.children_ns()) / 1e3);
    }
  }
  const Usage usage = w.usage();
  const double members = rd.members + wr.members;
  const double rounds = rd.rounds + wr.rounds;
  const double read_p50 = pct_or_zero(w.latencies_us(Kind::kRead), kP50);
  const double write_p50 = pct_or_zero(w.latencies_us(Kind::kWrite), kP50);
  const double frames_per_s =
      static_cast<double>(usage.frames_sent) / w.seconds();
  rep.metrics = {
      {"ares.read_rounds_per_op", ratio(rd.rounds, rd.members), "count"},
      {"ares.write_rounds_per_op", ratio(wr.rounds, wr.members), "count"},
      {"ares.elided_rounds_per_op", ratio(elided, members), "count"},
      {"ares.messages_per_op", ratio(messages, members), "count"},
      {"dap.batch_members_per_round", ratio(members, rounds), "count"},
      {"codec.encode_us", ratio(encode_ns / 1e3, encodes), "us"},
      {"codec.decode_us", ratio(decode_ns / 1e3, decodes), "us"},
      {"codec.calls_per_op", ratio(encodes + decodes, members), "count"},
      {"codec.read_share", ratio(ratio(rd.codec_ns / 1e3, rd.calls), read_p50),
       "fraction"},
      {"codec.write_share",
       ratio(ratio(wr.codec_ns / 1e3, wr.calls), write_p50), "fraction"},
      {"trace.read_p50_us", read_p50, "us"},
      {"trace.write_p50_us", write_p50, "us"},
      {"wire.encode_us_per_frame", ratio(wire_enc_ns / 1e3, frames), "us"},
      {"wire.decode_us_per_frame", ratio(wire_dec_ns / 1e3, frames), "us"},
      {"wire.bytes_per_frame", ratio(frame_bytes, frames), "B"},
      {"net.frames_per_op", per_op(static_cast<double>(usage.frames_sent),
                                   w.tally.completed),
       "count"},
      {"net.frames_dropped", static_cast<double>(usage.frames_dropped),
       "count"},
      {"net.retransmits", static_cast<double>(usage.retransmits), "count"},
      {"net.sender_queue_depth_mean", queue_depth_mean, "count"},
      {"net.sender_queue_wait_us", littles_wait_us(queue_depth_mean,
                                                   frames_per_s),
       "us"},
      {"net.ctx_switches_per_op",
       per_op(static_cast<double>(usage.ctx_switches), w.tally.completed),
       "count"},
      {"net.threads", static_cast<double>(threads), "count"},
      {"net.residual_read_us", pct_or_zero(read_self_us, kP50), "us"},
      {"trace.overhead_frac", 1.0 - ratio(w.ops_per_s(), plain.ops_per_s()),
       "fraction"},
  };
  rep.detail.emplace_back("traced_window_s", fmt(w.seconds()));
  rep.detail.emplace_back("traced_ops", std::to_string(w.tally.completed));
  rep.detail.emplace_back("untraced_ops_per_s", fmt(plain.ops_per_s()));
  rep.detail.emplace_back("share_base",
                          "codec time per call / traced p50 of that call kind");
}

/// Output check: every read returned bytes written under its tag, and the
/// cluster's history is atomic per object.
bool check_outputs(net::NetCluster& cluster, const std::vector<ClientLog>& logs,
                   Report& rep) {
  struct Key {
    ObjectId obj;
    Tag tag;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()(k.tag.z * 0x9E3779B97F4A7C15ULL ^
                                        (std::uint64_t{k.obj} << 20) ^
                                        k.tag.writer);
    }
  };
  std::unordered_map<Key, std::uint64_t, KeyHash> written;
  bool ok = true;
  for (const ClientLog& log : logs) {
    for (const TagRec& w : log.writes) {
      if (!written.emplace(Key{w.obj, w.tag}, w.digest).second) ok = false;
    }
  }
  std::size_t reads = 0;
  std::size_t bad_reads = 0;
  for (const ClientLog& log : logs) {
    for (const TagRec& r : log.reads) {
      ++reads;
      const auto it = written.find(Key{r.obj, r.tag});
      if (it == written.end() || it->second != r.digest) ++bad_reads;
    }
  }
  std::size_t non_atomic = 0;
  for (const auto& [obj, verdict] : cluster.check_atomicity()) {
    if (!verdict.ok) ++non_atomic;
  }
  rep.detail.emplace_back("values_checked", std::to_string(reads));
  rep.detail.emplace_back("values_wrong", std::to_string(bad_reads));
  rep.detail.emplace_back("duplicate_write_tags", ok ? "0" : "some");
  rep.detail.emplace_back("non_atomic_objects", std::to_string(non_atomic));
  return ok && bad_reads == 0 && non_atomic == 0;
}

}  // namespace

Report run_workload(const RunConfig& cfg) {
  const WorkloadSpec& spec = *cfg.spec;
  Report rep;

  net::NetClusterOptions opts;
  opts.servers = kServers;
  opts.num_clients = kClients;
  opts.protocol = spec.protocol;
  opts.k = spec.k;
  opts.num_objects = spec.objects;

  // Set-up: construct the cluster, connect, and pre-write every object,
  // several times; the last cluster runs the workload.
  std::unique_ptr<net::NetCluster> cluster;
  std::vector<ClientLog> logs;
  std::vector<double> setup_s;
  for (std::size_t rep_i = 0; rep_i < kSetupRepeats; ++rep_i) {
    cluster.reset();
    logs.clear();
    for (std::size_t c = 0; c < kClients; ++c) logs.emplace_back(c);
    const auto t0 = Clock::now();
    cluster = std::make_unique<net::NetCluster>(opts);
    prewrite(*cluster, spec, cfg.seed, logs);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  Shared sh(spec, *cluster);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(client_loop, std::ref(sh), c, cfg.seed,
                         std::ref(logs[c]));
  }

  // Untraced window (the end-to-end figures), sampled at every slice
  // boundary; with --trace 1 it takes the first half of the time and a
  // traced window the second.
  const double plain_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const auto slices = static_cast<std::size_t>(
      std::max(1.0, std::round(plain_s / kSliceS)));
  sleep_s(kWarmupS);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> steal_marks{
      host_steal_ticks()};
  std::vector<std::int64_t> marks_ns{now_ns()};
  std::vector<Usage> marks{sample_usage(*cluster)};
  const auto start = Clock::now();
  const std::chrono::duration<double> slice(plain_s /
                                            static_cast<double>(slices));
  for (std::size_t i = 1; i <= slices; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    slice * static_cast<double>(i)));
    marks.push_back(sample_usage(*cluster));
    marks_ns.push_back(now_ns());
    steal_marks.push_back(host_steal_ticks());
  }
  std::vector<double> slice_steal;
  for (std::size_t i = 1; i < steal_marks.size(); ++i) {
    slice_steal.push_back(ratio(
        static_cast<double>(steal_marks[i].first - steal_marks[i - 1].first),
        static_cast<double>(steal_marks[i].second -
                            steal_marks[i - 1].second)));
  }
  rep.detail.emplace_back("slice_steal_frac", fmt_list(slice_steal));

  const auto steal0 = steal_marks.front(), steal1 = steal_marks.back();
  rep.detail.emplace_back(
      "host_steal_frac",
      fmt(ratio(static_cast<double>(steal1.first - steal0.first),
                static_cast<double>(steal1.second - steal0.second))));
  std::vector<std::int64_t> traced_ns{marks_ns.back()};
  std::vector<Usage> traced_marks{marks.back()};
  double queue_depth_mean = 0;
  std::size_t threads = 0;
  if (cfg.trace) {
    sh.tracing.store(true);
    std::atomic<bool> sampling{true};
    double depth_sum = 0;
    std::size_t depth_samples = 0;
    std::thread sampler([&] {
      while (sampling.load()) {
        depth_sum += static_cast<double>(total_queue_depth(*cluster));
        ++depth_samples;
        std::this_thread::sleep_for(kQueueSamplePeriod);
      }
    });
    sleep_s(cfg.seconds / 2);
    traced_marks.push_back(sample_usage(*cluster));
    traced_ns.push_back(now_ns());
    threads = thread_count();
    sampling.store(false);
    sampler.join();
    queue_depth_mean = per_op(depth_sum, depth_samples);
  }
  sh.stop.store(true);
  for (auto& t : clients) t.join();
  for (const ClientLog& log : logs) {
    if (log.error) std::rethrow_exception(log.error);
  }

  for (const ClientLog& log : logs) {
    rep.attempted += log.tally.attempted;
    rep.failed += log.tally.failed();
  }
  rep.correct = check_outputs(*cluster, logs, rep);

  const Window plain =
      collect(logs, marks_ns, marks,
              quiet_slices(slice_steal, kMaxSliceSteal, kMinQuietSlices),
              /*traced=*/false);
  if (cfg.trace) {
    const Window traced = collect(logs, traced_ns, traced_marks, {true},
                                  /*traced=*/true);
    per_layer(plain, traced, queue_depth_mean, threads, rep);
    if (!cfg.trace_out.empty()) {
      std::ofstream out(cfg.trace_out);
      for (const ClientLog& log : logs) log.spans.write_jsonl(out);
    }
  } else {
    end_to_end(plain, sh, rep);
    rep.metrics.push_back({"setup_s", median(setup_s), "s"});
  }
  rep.detail.emplace_back("setup_runs_s", fmt_list(setup_s));
  return rep;
}

}  // namespace perfbench
