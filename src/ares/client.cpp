#include "ares/client.hpp"

#include "common/mutations.hpp"
#include "dap/batch.hpp"
#include "dap/factory.hpp"
#include "storage/messages.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <type_traits>

namespace ares::reconfig {
namespace {

/// Frame-scoped in-flight markers: while any operation coroutine holding
/// indices into an object's cseq is suspended, trim_cseq must not rebase
/// the sequence. Destroyed with the coroutine frame, so exceptional exits
/// release the marks too.
struct InflightGuards {
  std::vector<std::size_t*> counts;
  void hold(std::size_t& n) {
    ++n;
    counts.push_back(&n);
  }
  InflightGuards() = default;
  InflightGuards(const InflightGuards&) = delete;
  InflightGuards& operator=(const InflightGuards&) = delete;
  ~InflightGuards() {
    for (std::size_t* n : counts) --*n;
  }
};

/// Piggybacked nextC discovery is sound for a configuration iff its DAP
/// phase quorums intersect every reconfiguration-service quorum on the same
/// configuration (so a completed put-config is always visible in at least
/// one reply). ABD and TREAS phases wait on server quorums (≥ a majority of
/// c.Servers); LDR phases talk to directory majorities / replica subsets,
/// which need not intersect a server quorum — LDR tails therefore always
/// take the explicit read-config round.
bool covers_config_hints(const dap::ConfigSpec& spec) {
  return spec.protocol != dap::Protocol::kLdr;
}

}  // namespace

AresClient::AresClient(sim::Simulator& sim, sim::Transport& net, ProcessId id,
                       dap::ConfigRegistry& registry, ConfigId c0,
                       checker::HistoryRecorder* recorder)
    : sim::Process(sim, net, id),
      registry_(registry),
      recorder_(recorder),
      default_c0_(c0) {
  assert(registry_.contains(c0));
  // Objects bind lazily (obj_state), so a multi-object store may
  // bind_object() any id — including kDefaultObject — to a different
  // initial configuration before its first operation.
}

AresClient::~AresClient() = default;

void AresClient::bind_object(ObjectId obj, ConfigId c0) {
  assert(registry_.contains(c0));
  auto [it, inserted] = objects_.try_emplace(obj);
  if (!inserted) {
    assert(it->second.cseq[0].cfg == c0 &&
           "object already bound to a different initial configuration");
    return;
  }
  it->second.cseq.push_back(CseqEntry{c0, true});  // cseq[0] = ⟨c0, F⟩
}

AresClient::ObjectState& AresClient::obj_state(ObjectId obj) {
  auto [it, inserted] = objects_.try_emplace(obj);
  if (inserted) {
    assert(registry_.contains(default_c0_));
    it->second.cseq.push_back(CseqEntry{default_c0_, true});
  }
  return it->second;
}

void AresClient::handle(const sim::Message& msg) {
  // Plain clients receive RPC replies (routed before handle()) plus the
  // lease invalidations servers push under LeasePolicy::kInvalidate; other
  // one-way messages such as TransferAck are handled by subclasses.
  if (auto inv =
          std::dynamic_pointer_cast<const dap::LeaseInvalidateMsg>(msg.body)) {
    auto it = objects_.find(inv->object);
    if (it != objects_.end()) {
      // Poison only a lease minted under the invalidating configuration:
      // a straggler settle at a superseded configuration (whose stale
      // record for us has not expired yet) says nothing about a lease we
      // since acquired under the successor — that one is protected by the
      // successor's own settle gates.
      if (it->second.lease.has_value() &&
          it->second.lease->cfg == inv->config) {
        it->second.lease.reset();
      }
      // Raise the install fence: a grant that left a server before this
      // invalidation may still be in flight, and the invalidating writer
      // may complete the moment we ack — installing that stale grant later
      // would serve a value older than a completed write.
      Tag& fence = it->second.lease_fence[inv->config];
      fence = std::max(fence, inv->tag);
    }
    // Ack even for unknown objects: the settling server awaits it.
    reply_to(msg, std::make_shared<dap::LeaseInvalidateAck>());
    return;
  }
}

void AresClient::note_config_hint(ConfigId cfg, ObjectId obj,
                                  const CseqEntry& next) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) return;  // reply for an object we dropped state of
  ObjectState& st = it->second;
  for (std::size_t i = 0; i < st.cseq.size(); ++i) {
    if (st.cseq[i].cfg != cfg) continue;
    if (i + 1 == st.cseq.size()) {
      // A successor we did not know: the cached sequence is stale until a
      // full traversal confirms where GL currently ends — and any lease
      // minted on the now-superseded tail must not serve another read.
      st.cseq.push_back(next);
      st.synced = false;
      st.lease.reset();
    } else {
      // Configuration Uniqueness (Lemma 47): only the status can be news.
      assert(st.cseq[i + 1].cfg == next.cfg);
      st.cseq[i + 1].finalized = st.cseq[i + 1].finalized || next.finalized;
    }
    return;
  }
}

const std::vector<CseqEntry>& AresClient::cseq(ObjectId obj) const {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    throw std::out_of_range(
        "AresClient::cseq: object not bound — call bind_object() (or run an "
        "operation on it) before observing its configuration sequence");
  }
  return it->second.cseq;
}

std::size_t AresClient::mu(ObjectId obj) const {
  const auto& cs = cseq(obj);
  for (std::size_t i = cs.size(); i-- > 0;) {
    if (cs[i].finalized) return i;
  }
  assert(false && "cseq[0] is always finalized");
  return 0;
}

void AresClient::set_entry(ObjectId obj, std::size_t idx, CseqEntry e) {
  ObjectState& st = obj_state(obj);
  auto& cs = st.cseq;
  assert(e.valid());
  assert(idx <= cs.size());
  if (idx == cs.size()) {
    cs.push_back(e);
    // The sequence grew: a lease minted on the previous tail is revoked
    // (reconfigurations — own or Rebalancer-driven — land here).
    st.lease.reset();
    return;
  }
  // Configuration Uniqueness (Lemma 47): the id in one slot never differs.
  assert(cs[idx].cfg == e.cfg);
  cs[idx].finalized = cs[idx].finalized || e.finalized;
}

const std::shared_ptr<dap::Dap>& AresClient::dap_for(ObjectId obj,
                                                     ConfigId cfg) {
  auto& daps = obj_state(obj).daps;
  auto it = daps.find(cfg);
  if (it == daps.end()) {
    it = daps.emplace(cfg, dap::make_dap(*this, registry_.get(cfg), obj))
             .first;
  }
  return it->second;
}

bool AresClient::tail_covers_hints(ObjectId obj) {
  return covers_config_hints(registry_.get(cseq(obj)[nu(obj)].cfg));
}

// ---------------------------------------------------------------------------
// Config-lineage GC (client side)
// ---------------------------------------------------------------------------

void AresClient::broadcast_retire(ObjectId obj, std::size_t upto,
                                  CseqEntry successor) {
  const auto& cs = cseq(obj);
  assert(upto <= cs.size());
  for (std::size_t i = 0; i < upto; ++i) {
    const ConfigId cfg = cs[i].cfg;
    for (ProcessId s : registry_.get(cfg).servers) {
      auto req = std::make_shared<storage::RetireConfigReq>();
      req->config = cfg;
      req->object = obj;
      req->successor = successor;
      send(s, std::move(req));
    }
  }
}

void AresClient::trim_cseq(ObjectId obj) {
  // Only under config-lineage GC: without it the full lineage stays live on
  // the servers and the (observable) client view keeps every entry.
  if (!config_gc_) return;
  auto it = objects_.find(obj);
  if (it == objects_.end()) return;
  ObjectState& st = it->second;
  if (st.inflight != 0) return;  // suspended ops hold indices into cseq
  std::size_t m = 0;
  for (std::size_t i = st.cseq.size(); i-- > 0;) {
    if (st.cseq[i].finalized) {
      m = i;
      break;
    }
  }
  if (m == 0) return;
  // Every entry below µ is superseded by a finalized successor and — once
  // the retirer's GC broadcast lands — answered only from tombstones.
  // Rebasing keeps cseq[0] finalized (the new base IS µ) and caps the
  // client's footprint at the live suffix of the lineage.
  for (std::size_t i = 0; i < m; ++i) {
    const ConfigId cfg = st.cseq[i].cfg;
    st.daps.erase(cfg);
    st.proposers.erase(cfg);
    st.lease_fence.erase(cfg);
  }
  st.cseq.erase(st.cseq.begin(),
                st.cseq.begin() + static_cast<std::ptrdiff_t>(m));
}

sim::Future<void> AresClient::resync_after_retire(ObjectId obj) {
  obj_state(obj).synced = false;
  // The traversal only talks to the configuration service, which keeps
  // answering from tombstones — it cannot itself be bounced. The retirer
  // finalized the successor before any retirement, so µ lands past every
  // retired entry and the retried phases touch only live configurations.
  co_await read_config(obj);
  co_return;
}

sim::Future<void> AresClient::complete_write(ObjectId obj, TagValue tv) {
  for (;;) {
    bool retired = false;
    try {
      auto prop = propagate_tail(obj, tv);
      co_await prop;
    } catch (const sim::ConfigRetired&) {
      retired = true;
    }
    if (!retired) co_return;
    auto rs = resync_after_retire(obj);
    co_await rs;
  }
}

// ---------------------------------------------------------------------------
// Per-object read leases (client side)
// ---------------------------------------------------------------------------

SimTime AresClient::lease_now() const {
  const auto skewed =
      static_cast<std::int64_t>(simulator().now()) + clock_skew_;
  return skewed < 0 ? 0 : static_cast<SimTime>(skewed);
}

bool AresClient::lease_usable(ObjectId obj, const ObjectState& st) const {
  if (!fast_path_ || !st.lease.has_value()) return false;
  const LeaseEntry& le = *st.lease;
  // The steady state the lease was minted in must still hold: the cached
  // sequence is synced and is exactly the single (finalized) configuration
  // the grants came from. Any growth poisons the entry, so these checks
  // are belt and braces.
  if (!st.synced || st.cseq.back().cfg != le.cfg) return false;
  if (mu(obj) != nu(obj)) return false;
  // ε guard: serve only while local_clock < expiry − ε. A real skew within
  // ±ε then keeps every local read inside the window the granting servers
  // enforce against writers.
  return lease_now() + lease_epsilon_ < le.expiry;
}

bool AresClient::holds_lease(ObjectId obj) const {
  auto it = objects_.find(obj);
  return it != objects_.end() && lease_usable(obj, it->second);
}

bool AresClient::try_lease_read(ObjectId obj, TagValue& out) {
  ObjectState& st = obj_state(obj);
  if (!lease_usable(obj, st)) return false;
  out = TagValue{st.lease->tag, st.lease->value};
  ++lease_local_reads_;
  return true;
}

void AresClient::install_lease(ObjectId obj, ConfigId cfg,
                               const TagValue& tv, SimTime expiry) {
  ObjectState& st = obj_state(obj);
  // Callers install once the pair is quorum-resident (confirmed by the
  // query, or put by the operation itself). The steady state the grants
  // were minted in must still hold: the sequence synced and exactly the
  // granting configuration — any successor revealed meanwhile poisoned
  // the premise.
  if (!fast_path_ || expiry == 0 || !st.synced || mu(obj) != nu(obj) ||
      st.cseq.back().cfg != cfg) {
    return;
  }
  // Install fence: a server invalidated tag f for this configuration while
  // our quorum round (whose grants predate the invalidation) was still in
  // flight — the invalidating write may already be complete, so only a
  // pair at least as new may be served locally.
  auto fit = st.lease_fence.find(cfg);
  if (fit != st.lease_fence.end() && tv.tag < fit->second) return;
  st.lease = LeaseEntry{cfg, tv.tag, tv.value, expiry};
  schedule_lease_reaper(obj, expiry);
}

void AresClient::schedule_lease_reaper(ObjectId obj, SimTime expiry) {
  // Expiry reaper: the lazy validity check already refuses a stale entry;
  // this timer wakeup frees the cached value bytes at window end. It fires
  // on the *client's* clock — the moment lease_usable() turns false — so a
  // skewed clock extends the real-time deadline exactly as it extends the
  // serving window (the hazard the ε guard bounds; reaping on true sim
  // time would silently mask it).
  const SimTime ln = lease_now();
  const SimDuration delay =
      ln + lease_epsilon_ < expiry ? expiry - lease_epsilon_ - ln + 1 : 1;
  std::weak_ptr<char> alive = lease_timer_token_;
  simulator().schedule_after(delay, [this, alive, obj, expiry] {
    if (alive.expired()) return;
    auto it = objects_.find(obj);
    if (it == objects_.end() || !it->second.lease.has_value()) return;
    if (it->second.lease->expiry > expiry) return;  // renewed since
    if (lease_now() + lease_epsilon_ < it->second.lease->expiry) {
      // The local clock has not reached the window end yet (skew): retry.
      schedule_lease_reaper(obj, it->second.lease->expiry);
      return;
    }
    it->second.lease.reset();
  });
}

void AresClient::poison_lease(ObjectId obj) {
  auto it = objects_.find(obj);
  if (it != objects_.end()) it->second.lease.reset();
}

// ---------------------------------------------------------------------------
// Sequence traversal (Algorithm 4)
// ---------------------------------------------------------------------------

sim::Future<std::optional<CseqEntry>> AresClient::read_next_config(
    ObjectId obj, ConfigId c) {
  const auto& spec = registry_.get(c);
  auto req = std::make_shared<ReadConfigReq>();
  req->config = c;
  req->object = obj;
  auto qc = sim::broadcast_collect<ReadConfigReply>(*this, spec.servers,
                                                    std::move(req));
  co_await qc.wait_for(spec.quorum_size());
  std::optional<CseqEntry> result;
  for (const auto& a : qc.arrivals()) {
    if (!a.reply->next.valid()) continue;
    if (!result || (a.reply->next.finalized && !result->finalized)) {
      result = a.reply->next;
    }
  }
  co_return result;
}

sim::Future<void> AresClient::put_config(ObjectId obj, ConfigId c,
                                         CseqEntry e) {
  const auto& spec = registry_.get(c);
  auto req = std::make_shared<WriteConfigReq>();
  req->config = c;
  req->object = obj;
  req->next = e;
  auto qc = sim::broadcast_collect<WriteConfigAck>(*this, spec.servers,
                                                   std::move(req));
  co_await qc.wait_for(spec.quorum_size());
  co_return;
}

sim::Future<void> AresClient::read_config(ObjectId obj) {
  (void)obj_state(obj);  // lazily bind to the default c0 on first use
  // Start from the last *finalized* configuration and chase nextC pointers
  // to the end of GL, helping propagate every link discovered (Alg. 4).
  std::size_t idx = mu(obj);
  for (;;) {
    std::optional<CseqEntry> next =
        co_await read_next_config(obj, cseq(obj)[idx].cfg);
    if (!next) {
      // A piggybacked hint (e.g. from a late reply of an earlier round) may
      // have extended the sequence past idx even though this quorum round
      // reported ⊥ — keep chasing from the extended entry.
      if (nu(obj) > idx) {
        co_await put_config(obj, cseq(obj)[idx].cfg, cseq(obj)[idx + 1]);
        ++idx;
        continue;
      }
      break;
    }
    set_entry(obj, idx + 1, *next);
    co_await put_config(obj, cseq(obj)[idx].cfg, cseq(obj)[idx + 1]);
    ++idx;
  }
  // No suspension between the loop's exit condition and here, so no hint
  // can sneak in: the traversal really reached the current end of GL.
  obj_state(obj).synced = true;
  co_return;
}

sim::Future<void> AresClient::ensure_config(ObjectId obj) {
  ObjectState& st = obj_state(obj);
  if (fast_path_ && st.synced && tail_covers_hints(obj)) {
    co_return;  // steady state: the cached cseq is current — zero rounds
  }
  co_await read_config(obj);
  co_return;
}

// ---------------------------------------------------------------------------
// Read / write operations (Algorithm 7, with the steady-state fast path)
//
// One pipeline serves scalar and batched operations (see the class
// comment): run_ops serves leases and resolves configurations, run_group
// runs Algorithm 7 once per group of members sharing cseq[µ..ν], and
// query_round / put_round issue every data round.
// ---------------------------------------------------------------------------

struct AresClient::QueryRound {
  AresClient* client = nullptr;
  ConfigId cfg = kNoConfig;
  std::vector<ObjectId> objs;
  bool tags_only = false;
  sim::Future<Tag> tag{};                  // one member, get-tag
  sim::Future<dap::GetDataResult> data{};  // one member, get-data
  sim::Future<std::vector<dap::BatchQueryItem>> batch{};  // two or more

  bool await_ready() const noexcept {
    return tag.ready() || data.ready() || batch.ready();
  }
  void await_suspend(std::coroutine_handle<> h) {
    if (tag.valid()) return tag.await_suspend(h);
    if (data.valid()) return data.await_suspend(h);
    batch.await_suspend(h);
  }
  std::vector<dap::GetDataResult> await_resume();
};

std::vector<dap::GetDataResult> AresClient::QueryRound::await_resume() {
  if (tag.valid()) return {dap::GetDataResult{{tag.await_resume(), nullptr}}};
  if (data.valid()) return {data.await_resume()};
  // A scalar reply's piggybacked nextC reaches note_config_hint on
  // arrival; a batch reply carries one per member, absorbed here.
  std::vector<dap::BatchQueryItem> items = batch.await_resume();
  for (std::size_t j = 0; j < items.size(); ++j) {
    if (items[j].next_c.valid()) {
      client->note_config_hint(cfg, objs[j], items[j].next_c);
    }
  }
  const bool semifast = client->registry_.get(cfg).semifast;
  std::vector<dap::GetDataResult> out(items.size());
  for (std::size_t j = 0; j < items.size(); ++j) {
    out[j].tv = TagValue{items[j].tag, items[j].value};
    out[j].lease_expiry = items[j].lease_expiry;
    // The confirmation rule of the scalar get-data (one confirming server
    // suffices; see AbdDap::get_data_confirmed).
    out[j].confirmed =
        !tags_only && semifast && items[j].confirmed >= items[j].tag;
    if (out[j].confirmed) {
      client->dap_for(objs[j], cfg)->note_confirmed(items[j].tag);
    }
  }
  return out;
}

struct AresClient::PutRound {
  AresClient* client = nullptr;
  ConfigId cfg = kNoConfig;
  std::vector<dap::BatchPutItem> items;
  sim::Future<void> plain{};                 // one member, write-back
  sim::Future<dap::PutDataResult> leased{};  // one member, write
  sim::Future<dap::BatchPutResult> batch{};  // two or more

  bool await_ready() const noexcept {
    return plain.ready() || leased.ready() || batch.ready();
  }
  void await_suspend(std::coroutine_handle<> h) {
    if (plain.valid()) return plain.await_suspend(h);
    if (leased.valid()) return leased.await_suspend(h);
    batch.await_suspend(h);
  }
  std::vector<SimTime> await_resume();
};

std::vector<SimTime> AresClient::PutRound::await_resume() {
  if (plain.valid()) {
    plain.await_resume();
    return {0};
  }
  if (leased.valid()) return {leased.await_resume().lease_expiry};
  dap::BatchPutResult ack = batch.await_resume();
  for (std::size_t j = 0; j < items.size(); ++j) {
    if (ack.next_cs[j].valid()) {
      client->note_config_hint(cfg, items[j].object, ack.next_cs[j]);
    }
    // Quorum-propagated now: remember it, as the scalar put-data does.
    client->dap_for(items[j].object, cfg)->note_confirmed(items[j].tag);
  }
  return std::move(ack.lease_expiries);
}

AresClient::QueryRound AresClient::query_round(ConfigId cfg,
                                               std::vector<ObjectId> objs,
                                               bool tags_only,
                                               bool want_lease) {
  QueryRound r{this, cfg, std::move(objs), tags_only};
  if (r.objs.size() == 1) {
    const auto& dap = dap_for(r.objs.front(), cfg);
    if (tags_only) {
      r.tag = dap->get_tag();
    } else {
      r.data = dap->get_data_confirmed(want_lease);
    }
    return r;
  }
  std::vector<Tag> hints;
  for (ObjectId o : r.objs) hints.push_back(dap_for(o, cfg)->confirmed_tag());
  r.batch = dap::batch_get_data(*this, registry_.get(cfg), r.objs, tags_only,
                                std::move(hints), want_lease);
  return r;
}

AresClient::PutRound AresClient::put_round(ConfigId cfg,
                                           std::vector<dap::BatchPutItem> items,
                                           bool write, bool want_lease) {
  PutRound r{this, cfg, std::move(items)};
  if (r.items.size() == 1) {
    const auto& dap = dap_for(r.items.front().object, cfg);
    TagValue tv{r.items.front().tag, r.items.front().value};
    if (write) {
      r.leased = dap->put_data_leased(tv, want_lease);
    } else {
      r.plain = dap->put_data(tv);
    }
    return r;
  }
  r.batch = dap::batch_put_data(*this, registry_.get(cfg), r.items, want_lease);
  return r;
}

std::vector<std::vector<std::size_t>> AresClient::group_members(
    const std::vector<ObjectId>& objs,
    const std::vector<std::size_t>& members) {
  if (members.size() < 2) return {members};
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::vector<ConfigId>, std::size_t> shared;  // list -> group
  for (std::size_t k : members) {
    const ObjectId obj = objs[k];
    std::vector<ConfigId> list;
    bool batchable = true;
    for (std::size_t i = mu(obj); i <= nu(obj); ++i) {
      list.push_back(cseq(obj)[i].cfg);
      batchable = batchable && dap::batch_capable(registry_.get(list.back()));
    }
    auto it = shared.find(list);
    if (batchable && it != shared.end() &&
        std::none_of(groups[it->second].begin(), groups[it->second].end(),
                     [&](std::size_t g) { return objs[g] == obj; })) {
      groups[it->second].push_back(k);
      continue;
    }
    if (batchable && it == shared.end()) shared.emplace(list, groups.size());
    groups.push_back({k});
  }
  return groups;
}

template <typename Result>
sim::Future<Result> AresClient::run_ops(std::vector<ObjectId> objs,
                                        std::vector<ValuePtr> values) {
  constexpr bool write = !std::is_same_v<Result, std::vector<TagValue>>;
  std::vector<std::uint64_t> rec(objs.size(), 0);
  std::vector<std::size_t> first(objs.size());  // first slot of the object
  std::vector<std::size_t> pending;  // a repeated read shares its first slot
  InflightGuards guard;
  for (std::size_t i = 0; i < objs.size(); ++i) {
    ObjectState& st = obj_state(objs[i]);  // lazily bind to the default c0
    trim_cseq(objs[i]);
    first[i] = static_cast<std::size_t>(
        std::find(objs.begin(), objs.end(), objs[i]) - objs.begin());
    if (first[i] == i) guard.hold(st.inflight);
    if (write || first[i] == i) pending.push_back(i);
    // An own write outdates any locally cached pair: the servers' settle
    // gates exclude the writer itself, so the writer revokes its own lease.
    if (write) poison_lease(objs[i]);
    if (recorder_ != nullptr) {
      rec[i] = recorder_->begin(
          id(), write ? checker::OpKind::kWrite : checker::OpKind::kRead,
          simulator().now(), objs[i]);
    }
  }

  std::vector<TagValue> got(objs.size());
  while (!pending.empty()) {
    // Lease fast path: a valid window serves a read locally — zero quorum
    // rounds, zero messages — and keeps it out of every round below.
    std::vector<std::size_t> quorum;
    for (std::size_t i : pending) {
      if (write || !try_lease_read(objs[i], got[i])) quorum.push_back(i);
    }
    if (quorum.empty()) break;
    for (std::size_t i : quorum) {
      if (first[i] == i) co_await ensure_config(objs[i]);
    }
    std::vector<ObjectId> qobjs;
    std::vector<ValuePtr> qvalues;
    std::vector<std::uint64_t> qrecs;
    for (std::size_t i : quorum) {
      qobjs.push_back(objs[i]);
      if (write) {
        qvalues.push_back(values[i]);
        qrecs.push_back(rec[i]);
      }
    }
    // Retirement retry shell (reads; writes recover inside run_group): a
    // quorum round may bounce off garbage-collected state at any suspension
    // point; reads are side-effect free up to their write-back, so
    // re-running them after a re-sync is always sound.
    bool retired = false;
    try {
      auto run = run_group(write, std::move(qobjs), std::move(qvalues),
                           std::move(qrecs));
      std::vector<TagValue> pairs = co_await run;
      for (std::size_t j = 0; j < quorum.size(); ++j) got[quorum[j]] = pairs[j];
    } catch (const sim::ConfigRetired&) {
      retired = true;
    }
    pending.clear();
    if (!retired) break;
    for (std::size_t i : quorum) {
      auto rs = resync_after_retire(objs[i]);
      co_await rs;
      pending.push_back(i);
    }
  }

  for (std::size_t i = 0; i < objs.size(); ++i) {
    if (!write) got[i] = got[first[i]];
    if (recorder_ != nullptr) {
      recorder_->end(rec[i], simulator().now(), got[i].tag, got[i].value);
    }
  }
  if constexpr (std::is_same_v<Result, Tag>) {
    co_return got.front().tag;
  } else if constexpr (write) {
    Result tags;
    for (const TagValue& tv : got) tags.push_back(tv.tag);
    co_return tags;
  } else {
    co_return got;
  }
}

// A scalar read awaits read_batch from a frame of its own; a scalar write
// returns run_ops' Future itself. Every coroutine frame a completion passes
// through is one more posted resumption, which orders same-instant events
// in the simulator, so these frame counts are part of the deterministic
// schedule (fuzz schedule hashes, sim-bench counts).
sim::Future<TagValue> AresClient::read(ObjectId obj) {
  auto batch = read_batch({obj});
  std::vector<TagValue> out = co_await batch;
  co_return out.front();
}

sim::Future<Tag> AresClient::write(ObjectId obj, ValuePtr value) {
  return run_ops<Tag>({obj}, {std::move(value)});
}

sim::Future<std::vector<TagValue>> AresClient::read_batch(
    std::vector<ObjectId> objs) {
  return run_ops<std::vector<TagValue>>(std::move(objs), {});
}

sim::Future<std::vector<Tag>> AresClient::write_batch(
    std::vector<ObjectId> objs, std::vector<ValuePtr> values) {
  assert(objs.size() == values.size());
  return run_ops<std::vector<Tag>>(std::move(objs), std::move(values));
}

sim::Future<std::vector<TagValue>> AresClient::run_group(
    bool write, std::vector<ObjectId> objs, std::vector<ValuePtr> values,
    std::vector<std::uint64_t> recs) {
  struct Member {
    TagValue pair;  // the pair read, or the pair written
    bool confirmed = false;
    bool noted = false;  // a write whose tag is recorded history
    bool done = false;
    SimTime lease_expiry = 0;  // grant window to install, 0 = none
    ConfigId lease_cfg = kNoConfig;
  };
  std::vector<Member> m(objs.size());
  // Work items, run in order: members to run together. A member whose ν
  // moved, or whose write bounced before it chose a tag, comes back as an
  // item of its own.
  std::vector<std::vector<std::size_t>> work(1);
  for (std::size_t k = 0; k < objs.size(); ++k) work[0].push_back(k);
  for (std::size_t w = 0; w < work.size(); ++w) {
    // Group the item by current cseq[µ..ν] (a hint may have moved a member
    // since it was queued); run the first group, queue the rest next.
    std::vector<std::vector<std::size_t>> groups = group_members(objs, work[w]);
    work.insert(work.begin() + static_cast<std::ptrdiff_t>(w) + 1,
                groups.begin() + 1, groups.end());
    const std::vector<std::size_t> item = std::move(groups.front());
    std::vector<ObjectId> iobjs;
    for (std::size_t k : item) iobjs.push_back(objs[k]);
    bool retired = false;
    try {
      // Query every configuration µ..ν for the max tag (write) or the max
      // tag-value pair (read).
      std::vector<ConfigId> list;
      for (std::size_t i = mu(iobjs[0]); i <= nu(iobjs[0]); ++i) {
        list.push_back(cseq(iobjs[0])[i].cfg);
      }
      for (std::size_t k : item) m[k] = Member{};
      for (ConfigId c : list) {
        // Ask for grants only when the whole sequence is this one
        // configuration — the settle gates of a superseded configuration
        // do not cover writes landing in its successors, and a grant the
        // client cannot install would still stall later writers.
        const bool want_lease = !write && fast_path_ && list.size() == 1;
        auto round = query_round(c, iobjs, write, want_lease);
        const std::vector<dap::GetDataResult> rs = co_await round;
        for (std::size_t j = 0; j < item.size(); ++j) {
          const std::size_t k = item[j];
          if (write) {
            m[k].pair.tag = std::max(m[k].pair.tag, rs[j].tv.tag);
          } else if (rs[j].tv.tag > m[k].pair.tag || !m[k].pair.value) {
            m[k].pair = rs[j].tv;
            m[k].confirmed = rs[j].confirmed;
          }
          if (want_lease) {
            m[k].lease_expiry = rs[j].lease_expiry;
            m[k].lease_cfg = c;
          }
        }
      }

      // Members whose ν moved (a piggybacked hint revealed a successor)
      // re-traverse and re-run after the others; those choose what to put.
      std::vector<std::size_t> moved;
      std::vector<std::size_t> put;
      for (std::size_t k : item) {
        if (cseq(objs[k]).back().cfg != list.back()) {
          moved.push_back(k);
          continue;
        }
        if (write) {
          m[k].pair = TagValue{m[k].pair.tag.next(id()), values[k]};
          // Record the tag pre-put: a crashed writer's value may surface.
          if (recorder_ != nullptr) {
            recorder_->note_write_tag(recs[k], m[k].pair.tag, values[k]);
          }
          m[k].noted = true;
          put.push_back(k);
          continue;
        }
        if (!m[k].pair.value) m[k].pair.value = initial_value();  // v0
        // Semifast read: when the whole sequence is one configuration and
        // the max tag is already quorum-confirmed there, the write-back
        // phase (and its trailing read-config) is redundant. Safe because
        // the confirmation is evidence about the *past* — the tag rested at
        // a full quorum before this read's replies — so any reconfiguration
        // transfer sampling after our replies observes it by quorum
        // intersection, and any reconfiguration whose put-config completed
        // before our replies was already visible as a piggybacked hint
        // (forcing the re-run). Contrast with a write, whose tag reaches a
        // quorum only concurrently with its put round and therefore must
        // re-sample afterwards.
        if (fast_path_ && m[k].confirmed && list.size() == 1 &&
            tail_covers_hints(objs[k])) {
          install_lease(objs[k], m[k].lease_cfg, m[k].pair, m[k].lease_expiry);
          m[k].done = true;
        } else {
          put.push_back(k);
        }
      }

      // Put into the tail, then again into every newly revealed tail until
      // the member's sequence stops growing. Steps owed: target, members.
      std::vector<std::pair<ConfigId, std::vector<std::size_t>>> steps;
      if (!put.empty()) steps.emplace_back(list.back(), put);
      for (std::size_t s = 0; s < steps.size(); ++s) {
        const auto [vcfg, step] = steps[s];
        // Ask for a write-ack lease only in the single-tail steady state
        // its install premise needs.
        bool want_lease = write && fast_path_;
        std::vector<dap::BatchPutItem> items;
        for (std::size_t k : step) {
          const ObjectId obj = objs[k];
          want_lease = want_lease && obj_state(obj).synced &&
                       cseq(obj)[mu(obj)].cfg == vcfg && tail_covers_hints(obj);
          items.push_back({obj, m[k].pair.tag, m[k].pair.value});
        }
        auto round = put_round(vcfg, std::move(items), write, want_lease);
        const std::vector<SimTime> expiries = co_await round;

        std::vector<std::size_t> check;
        for (std::size_t j = 0; j < step.size(); ++j) {
          const std::size_t k = step[j];
          // Alg. 7 re-reads the configuration after the put. Under fenced
          // transfer reads that read-config IS elidable when the ack quorum
          // came back hint-free: every transfer read of a racing
          // reconfiguration waits for a quorum of servers that have
          // *installed* the successor pointer, and that quorum intersects
          // our put ack quorum — the intersection server either acked our
          // put before its fenced reply (the transfer observes our tag) or
          // replied fenced first, in which case its ack to us carries the
          // pointer and we take the explicit round after all (see
          // FastPath.WriteDiscoversReconfigCompletingDuringPutRound for the
          // adversarial schedule). LDR tails never elide (tail_covers_hints
          // is false), so LDR sources need no fence.
          if (fast_path_ && obj_state(objs[k]).synced &&
              cseq(objs[k]).back().cfg == vcfg && tail_covers_hints(objs[k])) {
            // A write's ack lease: a full quorum granted on the ack,
            // certifying our pair is each granting server's current
            // register — the writer immediately re-leases its own value.
            if (write) {
              m[k].lease_expiry = expiries[j];
              m[k].lease_cfg = vcfg;
            }
            install_lease(objs[k], m[k].lease_cfg, m[k].pair, m[k].lease_expiry);
            m[k].done = true;
          } else {
            check.push_back(k);
          }
        }
        if (check.size() < step.size()) note_round_elided();

        // Otherwise the explicit read-config: the member's own traversal.
        for (std::size_t k : check) co_await read_config(objs[k]);
        for (std::size_t k : check) {
          const ConfigId tail = cseq(objs[k]).back().cfg;
          if (tail != vcfg) {
            steps.emplace_back(tail, std::vector<std::size_t>{k});
          } else {
            install_lease(objs[k], m[k].lease_cfg, m[k].pair, m[k].lease_expiry);
            m[k].done = true;
          }
        }
      }

      for (std::size_t k : moved) {
        co_await read_config(objs[k]);
        work.push_back({k});
      }
    } catch (const sim::ConfigRetired&) {
      if (!write) throw;  // the caller re-syncs and re-runs the read
      retired = true;
    }
    if (!retired) continue;
    // A quorum round bounced off garbage-collected state: re-sync each
    // unfinished member. One whose tag is recorded history finishes by
    // re-propagating the SAME pair into the re-synced tail (complete_write)
    // — the checker indexes writes by their single noted tag, so a fresh
    // tag would be a second write. One without a tag yet retries from the
    // query: no tag has been recorded, so a fresh choice is sound.
    for (std::size_t k : item) {
      if (m[k].done) continue;
      auto rs = resync_after_retire(objs[k]);
      co_await rs;
      if (m[k].noted) {
        auto fin = complete_write(objs[k], m[k].pair);
        co_await fin;
        m[k].done = true;
      } else {
        co_await ensure_config(objs[k]);
        work.push_back({k});
      }
    }
  }
  std::vector<TagValue> out;
  for (const Member& x : m) out.push_back(x.pair);
  co_return out;
}

sim::Future<void> AresClient::propagate_tail(ObjectId obj, TagValue tv) {
  std::size_t v = nu(obj);
  for (;;) {
    auto round = put_round(cseq(obj)[v].cfg, {{obj, tv.tag, tv.value}},
                           /*write=*/false, /*want_lease=*/false);
    co_await round;
    co_await read_config(obj);
    if (nu(obj) == v) break;
    v = nu(obj);
  }
  co_return;
}

// ---------------------------------------------------------------------------
// Reconfiguration (Algorithm 5)
// ---------------------------------------------------------------------------

sim::Future<consensus::PaxosValue> AresClient::propose(ObjectId obj,
                                                       ConfigId on_cfg,
                                                       ConfigId value) {
  auto& proposers = obj_state(obj).proposers;
  auto it = proposers.find(on_cfg);
  if (it == proposers.end()) {
    it = proposers
             .emplace(on_cfg, std::make_unique<consensus::PaxosProposer>(
                                  *this, on_cfg,
                                  registry_.get(on_cfg).servers,
                                  simulator().rng().next_u64(),
                                  /*backoff_base=*/8, obj))
             .first;
  }
  return it->second->propose(value);
}

sim::Future<void> AresClient::update_config(ObjectId obj) {
  // Algorithm 5 update-config: pull the max tag-value pair from every
  // configuration in cseq[µ..ν] through this client, then push it into the
  // newly added configuration ν. (The value flows through the client — the
  // bottleneck ARES-TREAS removes; see arestreas::DirectAresClient.)
  const std::size_t m = mu(obj);
  const std::size_t v = nu(obj);
  TagValue best{kInitialTag, nullptr};
  for (std::size_t i = m; i <= v; ++i) {
    // Fenced on every transfer *source* (i < v): count only replies whose
    // server echoes the installed successor pointer, so the transfer is
    // ordered against concurrent writes whose post-put config check was
    // elided (see run_group). The fence carries cseq[i+1] and installs it
    // on every replying server, so any live quorum suffices. The tail
    // (i == v) has no successor pointer yet and stays unfenced — it is the
    // transfer *destination*, not a source.
    TagValue tv;
    bool lost = false;
    try {
      if (i < v) {
        auto fut =
            dap_for(obj, cseq(obj)[i].cfg)->get_data_fenced(cseq(obj)[i + 1]);
        tv = co_await fut;
      } else {
        auto fut = dap_for(obj, cseq(obj)[i].cfg)->get_data();
        tv = co_await fut;
      }
    } catch (const sim::ConfigRetired&) {
      // A transfer source was retired out from under the transfer. Under
      // the skip_gc_quorum_check mutation this is exactly the injected bug:
      // GC raced ahead of the state transfer and the source's data is gone
      // — the source contributes nothing and the (lossy) transfer
      // completes, so the atomicity oracle can observe the lost write.
      // Without the mutation the correct reaction is to abort and re-sync.
      if (!mutations().skip_gc_quorum_check) throw;
      lost = true;
    }
    if (lost) continue;
    if (tv.value) update_config_bytes_ += tv.value->size();  // pulled in
    best = max_by_tag(best, tv);
  }
  if (!best.value) best.value = initial_value();
  update_config_bytes_ += best.value->size();  // pushed out
  co_await dap_for(obj, cseq(obj)[v].cfg)->put_data(best);
  co_return;
}

sim::Future<ConfigId> AresClient::reconfig(ObjectId obj,
                                           dap::ConfigSpec new_spec) {
  (void)obj_state(obj);  // lazily bind to the default c0 on first use
  // Make the proposed spec resolvable by every process (the simulation's
  // equivalent of shipping the spec alongside its id).
  if (!registry_.contains(new_spec.id)) {
    registry_.register_config(new_spec);
  }

  // Reconfig holds cseq indices (v, last) across suspension points: pin the
  // cseq against trim_cseq rebasing by concurrent ops on this client.
  InflightGuards guard;
  guard.hold(obj_state(obj).inflight);

  ConfigId decided = kNoConfig;
  for (;;) {
    bool retired = false;
    try {
      // Phase 1: read-config. Reconfigurations are rare: always the full
      // traversal, never the cached-cseq shortcut. (Traversal talks only to
      // the config service, which answers from tombstones — it is never
      // bounced by retirement.)
      co_await read_config(obj);

      if (decided == kNoConfig) {
        // A previous attempt's proposal may have been decided on a
        // configuration retired before the outcome reached us. Config ids
        // are unique in the chain — never re-propose one already present.
        for (const auto& e : cseq(obj)) {
          if (e.cfg == new_spec.id) {
            decided = new_spec.id;
            break;
          }
        }
      }
      if (decided == kNoConfig) {
        // Phase 2: add-config — consensus on the successor of the current
        // last configuration, then announce the link with put-config.
        const std::size_t v = nu(obj);
        const ConfigId prev = cseq(obj)[v].cfg;
        decided = static_cast<ConfigId>(
            co_await propose(obj, prev, new_spec.id));
        set_entry(obj, v + 1, CseqEntry{decided, false});
        co_await put_config(obj, prev, cseq(obj)[v + 1]);
        if (config_gc_ && mutations().skip_gc_quorum_check) {
          // Mutation: retire the superseded prefix right after add-config,
          // fabricating a "finalized" successor — before the state
          // transfer ran. Any completed write stored only in the retired
          // prefix is lost (the bug class GC's quorum gating prevents).
          broadcast_retire(obj, v + 1, CseqEntry{decided, true});
        }
      }

      // Locate the decided configuration in the (possibly re-synced)
      // chain. Absent, or at/below µ, means the chain already finalized
      // at-or-past it — some other process completed phases 3–4 for us.
      std::size_t idx = 0;
      bool found = false;
      for (std::size_t i = 0; i < cseq(obj).size(); ++i) {
        if (cseq(obj)[i].cfg == decided) {
          idx = i;
          found = true;
          break;
        }
      }
      if (!found || idx <= mu(obj)) co_return decided;

      // Phase 3: update-config — transfer the latest object state into the
      // new configuration. Pin the index now: update_config transfers into
      // the tail known at this instant, and phase 4 must finalize exactly
      // that entry — never an even-newer configuration a piggybacked hint
      // appends while the transfer is in flight (its own reconfigurer
      // finalizes it after its own transfer).
      const std::size_t last = nu(obj);
      co_await update_config(obj);

      // Phase 4: finalize-config.
      obj_state(obj).cseq[last].finalized = true;
      co_await put_config(obj, cseq(obj)[last - 1].cfg, cseq(obj)[last]);

      if (config_gc_) {
        // The transfer completed and the finalize quorum acked: the prefix
        // cseq[0..last) is superseded — tell its servers to retire the
        // object's state there (fire-and-forget; stragglers re-learn via
        // the tombstone bounce).
        broadcast_retire(obj, last, cseq(obj)[last]);
      }
      co_return decided;
    } catch (const sim::ConfigRetired&) {
      retired = true;
    }
    if (retired) {
      auto rs = resync_after_retire(obj);
      co_await rs;
    }
  }
}

}  // namespace ares::reconfig
