#include "fleet/replica.hpp"

#include <algorithm>
#include <filesystem>

#include "common/error.hpp"
#include "fleet/integrity.hpp"

namespace advh::fleet {

namespace {

/// Repair-traffic bound: at most this many shard repairs a replica
/// requests per scrub round, and serves per tick, so anti-entropy can
/// never starve serving.
constexpr std::size_t kRepairBatch = 1;

/// Ballot/staging deadline: a rollout stuck on a dead voter or validator
/// aborts after this many ticks and retries at the next alarm check.
std::uint64_t rollout_deadline(const fleet_config& cfg) {
  return 4 * cfg.request_timeout;
}

}  // namespace

replica::replica(std::size_t index, const fleet_config& cfg,
                 replica_deps deps, sim_net& net, const fault_plan& plan,
                 event_log& log)
    : index_(index),
      cfg_(cfg),
      deps_(std::move(deps)),
      net_(net),
      plan_(plan),
      log_(log) {
  boot(0, /*genesis=*/true);
}

void replica::enqueue(message m) {
  // A crashed replica has no inbox; a stalled one buffers (the messages
  // were delivered — the process just is not scheduling).
  if (up_) inbox_.push_back(std::move(m));
}

std::uint64_t replica::applied_version(std::uint64_t shard) const {
  const auto it = applied_.find(shard);
  return it == applied_.end() ? 0 : it->second;
}

void replica::boot(std::uint64_t tick, bool genesis) {
  clock_ = std::make_unique<serve::virtual_clock>();
  clock_->advance_to(cfg_.tick * static_cast<std::int64_t>(tick));
  monitor_ = deps_.make_monitor();

  // Model mirror: genesis parameters, then overlay every shard checkpoint
  // the shipped-state store has — recovery resumes from the last promoted
  // content, not from scratch.
  models_ = models_of(*deps_.base);
  applied_.clear();
  applied_epoch_.clear();
  corrupt_.clear();
  repair_requested_.clear();
  ban_synced_.clear();
  repairs_in_round_ = 0;
  repairs_served_tick_ = 0;
  repairs_served_count_ = 0;
  for (std::uint64_t s = 0; s < cfg_.class_shards; ++s) {
    applied_[s] = 1;  // genesis content is version 1 by definition
    applied_epoch_[s] = view_epoch(1, 1);
    const std::string latest = shard_latest_path(deps_.dir, s);
    if (!std::filesystem::exists(latest)) continue;
    try {
      core::checkpoint cp = load_shard_checkpoint(latest, s, cfg_, 0, 0);
      merge_shard(models_, cp.det, s, cfg_);
      applied_[s] = cp.meta->content_version;
      applied_epoch_[s] = cp.meta->epoch;
    } catch (const io_error&) {
      // The shipped store HAS content for this shard but it fails
      // verification (checksum mismatch, truncation, framing). Serving
      // genesis parameters here would silently replace promoted content
      // with stale defaults — instead the shard is corrupt-FENCED: it
      // backs no full-confidence verdict, publishes nothing and waits
      // for anti-entropy repair from a peer that still holds the real
      // content. Fail closed, not quietly wrong.
      corrupt_.insert(s);
      ++log_.stats().shards_fenced_corrupt;
      log_.line(tick, "corrupt-fence shard=" + std::to_string(s) +
                          " node=" + std::to_string(node()));
    }
  }
  dets_.clear();
  service_.reset();
  rebuild_detector();

  tracker_ = std::make_unique<track::query_tracker>(*clock_, cfg_.track);
  service_ = std::make_unique<serve::detection_service>(
      *dets_.back(), *monitor_, *clock_, cfg_.serve);
  service_->attach_tracker(*tracker_);
  replay_ban_ledgers(tick);

  const std::size_t classes = deps_.base->num_classes();
  const std::size_t events = deps_.base->config().events.size();
  cells_.assign(classes, std::vector<core::drift_cell>(events));
  reservoir_.assign(classes, {});
  canaries_.assign(classes, {});
  canary_cursor_.assign(classes, 0);
  if (deps_.canary_pool != nullptr) {
    for (const auto& [label, input] : *deps_.canary_pool) {
      if (label < classes) canaries_[label].push_back(&input);
    }
  }

  pending_.clear();
  handoffs_.clear();
  rollout_.reset();
  staged_det_.reset();

  acquired_at_.clear();
  promoted_at_.clear();
  if (genesis) {
    // The fleet starts whole: every replica installs the initial view and
    // is immediately serveable (no prior owner existed, so no acquisition
    // grace applies). After a crash the view stays empty (epoch 0 fences
    // everything) until a controller beacon arrives. Genesis is the first
    // view of election term 1 — the same epoch the genesis leader mints.
    view_.epoch = view_epoch(1, 1);
    view_.live.clear();
    for (std::size_t i = 0; i < cfg_.replicas; ++i) {
      view_.live.push_back(replica_node(i));
    }
    freshest_beacon_ = tick;
  } else {
    view_ = membership_view{};
    freshest_beacon_ = 0;
  }

  up_ = true;
  stalled_ = false;
}

void replica::rebuild_detector() {
  auto copy = models_;
  dets_.push_back(std::make_unique<core::detector>(
      core::detector::from_parts(deps_.base->config(), std::move(copy))));
  if (service_) service_->swap_detector(*dets_.back());
}

void replica::replay_ban_ledgers(std::uint64_t tick) {
  // Every replica's ledger, not just our own: a ban decided anywhere must
  // be enforced here even if its announce raced a crash. Reads are
  // CHECKED: a torn tail (crash mid-append, truncation fault) yields the
  // verified prefix — every fully persisted ban survives — and is
  // counted; only a corrupt header loses a whole ledger, and ban_sync
  // anti-entropy restores those decisions from peers.
  local_bans_.clear();
  known_bans_.clear();
  for (std::size_t i = 0; i < cfg_.replicas; ++i) {
    const std::uint32_t n = replica_node(i);
    const std::string path = ban_ledger_path(deps_.dir, n);
    const ban_ledger_read r = read_ban_ledger_checked(path);
    if (r.torn_tail || r.header_corrupt) {
      ++log_.stats().ledger_torn_tails;
      log_.line(tick, std::string("ledger-torn owner=") + std::to_string(n) +
                          " dropped=" + std::to_string(r.dropped_records) +
                          (r.header_corrupt ? " header=1" : "") +
                          " node=" + std::to_string(node()));
    }
    for (const std::uint64_t c : r.clients) {
      tracker_->force_ban(c);
      known_bans_.insert(c);
    }
    if (n == node()) {
      local_bans_ = r.clients;
      if (r.torn_tail || r.header_corrupt) {
        // Self-heal our own ledger from the recovered prefix so the
        // damage cannot compound across restarts.
        write_ban_ledger(path, local_bans_);
      }
    }
  }
}

void replica::crash(std::uint64_t tick) {
  if (!up_) return;
  up_ = false;
  stalled_ = false;
  inbox_.clear();
  pending_.clear();
  handoffs_.clear();
  rollout_.reset();
  staged_det_.reset();
  service_.reset();
  tracker_.reset();
  dets_.clear();
  monitor_.reset();
  clock_.reset();
  view_ = membership_view{};
  freshest_beacon_ = 0;
  ++log_.stats().crashes;
  log_.line(tick, "crash node=" + std::to_string(node()));
}

void replica::recover(std::uint64_t tick) {
  if (up_) return;
  boot(tick, /*genesis=*/false);
  ++log_.stats().recoveries;
  log_.line(tick, "recover node=" + std::to_string(node()));
}

void replica::stall(std::uint64_t tick) {
  if (!up_ || stalled_) return;
  stalled_ = true;
  ++log_.stats().stalls;
  log_.line(tick, "stall node=" + std::to_string(node()));
}

void replica::unstall(std::uint64_t tick) {
  if (!up_ || !stalled_) return;
  stalled_ = false;
  log_.line(tick, "unstall node=" + std::to_string(node()));
}

std::optional<std::uint32_t> replica::fence_slot(std::uint32_t range,
                                                 std::uint64_t tick) const {
  if (view_.epoch == 0) return std::nullopt;
  // The serving lease and the acquisition grace below share the ONE lease
  // boundary predicate (membership.hpp::lease_held): the holder serves
  // through anchor + lease inclusive, a successor may serve from
  // anchor + lease + 1. Before the predicate existed the two sides used
  // hand-written >=/> comparisons and disagreed about the boundary tick —
  // a one-tick overlap window the boundary regression test now pins shut.
  if (!lease_held(tick, freshest_beacon_, cfg_.lease)) return std::nullopt;
  const auto slot = owner_slot(view_, range, node(), cfg_.replication);
  if (!slot.has_value()) return std::nullopt;
  // Acquisition grace: a range newly covered through a view change stays
  // fenced until the PREVIOUS owner's lease has provably expired. The
  // previous owner may be perfectly healthy (a membership *addition*
  // moves ranges away from live replicas) and can keep serving under its
  // stale view until the change beacon reaches it — but never past its
  // lease, whose clock can only have reached the change tick (acked
  // heartbeats are controller-side ticks, recorded no later than the view
  // change that reassigned the range). Serving strictly after
  // change + lease is therefore disjoint from anything the predecessor
  // can do.
  const auto acquired = acquired_at_.find(range);
  if (acquired != acquired_at_.end() &&
      lease_held(tick, acquired->second, cfg_.lease)) {
    return std::nullopt;
  }
  // Promotion grace: a secondary promoted to primary by a view change
  // keeps serving DEGRADED-only (as if still slot 1) until the deposed
  // primary's lease has run out — it may be healthy and still serving the
  // range full-confidence under its stale view, and two full-confidence
  // servers for one range is exactly the split-brain the audit flags. The
  // grace ends the same tick the audit view flips (both run lease_held
  // off the change tick), so full-confidence serving and the new
  // authoritative view begin together.
  if (*slot == 0) {
    const auto promoted = promoted_at_.find(range);
    if (promoted != promoted_at_.end() &&
        lease_held(tick, promoted->second, cfg_.lease)) {
      return 1;
    }
  }
  return slot;
}

void replica::respond(std::uint64_t tick, std::uint64_t req_id,
                      std::uint64_t client, std::uint32_t range,
                      req_outcome outcome, bool flagged, bool degraded) {
  message r;
  r.kind = msg_kind::response;
  r.src = node();
  r.dst = kRouterNode;
  r.req_id = req_id;
  r.client = client;
  r.range = range;
  r.epoch = view_.epoch;
  r.outcome = outcome;
  r.flagged = flagged;
  r.degraded = degraded;
  net_.send(std::move(r), tick);
}

void replica::persist_ban(std::uint64_t client, std::uint64_t tick) {
  // Durability before effect: the ledger write precedes the response and
  // the announce, so once any query observes this ban, no crash can
  // un-decide it.
  local_bans_.push_back(client);
  known_bans_.insert(client);
  write_ban_ledger(ban_ledger_path(deps_.dir, node()), local_bans_);
  ++log_.stats().bans_decided;
  log_.line(tick, "ban client=" + std::to_string(client) +
                      " node=" + std::to_string(node()));
  for (std::size_t i = 0; i < cfg_.replicas; ++i) {
    if (replica_node(i) == node()) continue;
    message m;
    m.kind = msg_kind::ban_announce;
    m.src = node();
    m.dst = replica_node(i);
    m.client = client;
    net_.send_reliable(std::move(m), tick);
  }
  message m;
  m.kind = msg_kind::ban_announce;
  m.src = node();
  m.dst = kRouterNode;
  m.client = client;
  net_.send_reliable(std::move(m), tick);
}

void replica::handle_request(message& m, std::uint64_t tick) {
  // A normally routed request needs the PRIMARY slot; a speculative
  // re-route accepts any held slot (it exists precisely because the
  // primary is silent) and is tagged degraded when a non-primary slot
  // serves it.
  const auto slot = fence_slot(m.range, tick);
  const bool admissible =
      m.epoch == view_.epoch && slot.has_value() &&
      (m.speculative || *slot == 0);
  if (!admissible) {
    respond(tick, m.req_id, m.client, m.range, req_outcome::abstain_fenced,
            false);
    return;
  }
  serve::submit_result res = service_->submit(
      std::move(m.input), serve::priority::interactive, std::nullopt,
      m.client, /*degraded_confidence=*/m.speculative && *slot != 0);
  if (res.admitted()) {
    pending_[res.id] =
        pending_req{m.req_id, m.client, m.range, m.speculative};
    return;
  }
  if (res.status == serve::admit_status::rejected_banned) {
    if (res.newly_banned) persist_ban(m.client, tick);
    respond(tick, m.req_id, m.client, m.range, req_outcome::rejected_banned,
            false);
    return;
  }
  respond(tick, m.req_id, m.client, m.range, req_outcome::rejected, false);
}

void replica::apply_beacon(const message& m,
                           [[maybe_unused]] std::uint64_t tick) {
  // The lease clock advances on the controller's ACKED-HEARTBEAT tick,
  // monotonically — not on the beacon's send tick. Send-time freshness
  // has an asymmetric-loss hole: a replica whose heartbeats are being
  // lost (and is therefore about to be declared dead) can keep receiving
  // beacons and would stay unfenced while its ranges are reassigned.
  // The acked clock ties the lease to the very signal failure detection
  // watches, so declaration after failure_timeout of silence implies
  // every beacon this replica receives carries an ack that old — fenced
  // past any doubt. Monotone max also means a stale beacon buffered
  // through a stall can never refresh the lease.
  freshest_beacon_ = std::max(freshest_beacon_, m.acked_hb);
  if (m.view.epoch <= view_.epoch) return;

  const membership_view old = view_;
  view_ = m.view;

  // Bans decided while we were stalled or partitioned: announces are
  // reliable, but a view change is the cheap moment to re-sync from the
  // durable ledgers as well. Checked reads: a peer's torn or corrupt
  // ledger yields its verified prefix instead of throwing the whole
  // replica down.
  for (std::size_t i = 0; i < cfg_.replicas; ++i) {
    const std::uint32_t n = replica_node(i);
    if (n == node()) continue;
    const ban_ledger_read lr =
        read_ban_ledger_checked(ban_ledger_path(deps_.dir, n));
    for (const std::uint64_t c : lr.clients) {
      tracker_->force_ban(c);
      known_bans_.insert(c);
    }
  }

  // Record newly-covered ranges (ANY ownership slot — a fresh secondary
  // serves speculative traffic and needs the same grace as a fresh
  // primary) for the fence_slot serving grace. On a recovery boot `old`
  // is the empty epoch-0 view and every covered range counts as newly
  // acquired — the interim owner that served it while we were down is
  // exactly the healthy predecessor the grace waits out.
  for (std::uint32_t r = 0; r < cfg_.ring_ranges; ++r) {
    const auto now_slot = owner_slot(view_, r, node(), cfg_.replication);
    const auto old_slot = old.epoch != 0
                              ? owner_slot(old, r, node(), cfg_.replication)
                              : std::optional<std::uint32_t>{};
    if (now_slot.has_value() && !old_slot.has_value()) {
      acquired_at_[r] = m.send_tick;
    } else if (now_slot.has_value() && *now_slot == 0 &&
               old_slot.has_value() && *old_slot != 0) {
      // Already covered, newly primary: no full fence needed (degraded
      // serving of this range was already legitimate), but full-confidence
      // serving must wait out the deposed primary's lease.
      promoted_at_[r] = m.send_tick;
    }
  }

  // Bounded handoff of every range we owned but lost: one batch per range
  // per tick until the tracker has no clients left in it.
  if (old.epoch == 0) return;  // nothing was owned before the first view
  for (std::uint32_t r = 0; r < cfg_.ring_ranges; ++r) {
    if (range_owner(old, r) != node()) continue;
    const auto owner = range_owner(view_, r);
    if (!owner.has_value() || *owner == node()) continue;
    handoffs_[r] = *owner;
  }
}

void replica::apply_checkpoint(const message& m, std::uint64_t tick) {
  try {
    core::checkpoint cp = load_shard_checkpoint(
        m.path, m.shard, cfg_, applied_epoch_[m.shard], applied_[m.shard]);
    merge_shard(models_, cp.det, m.shard, cfg_);
    applied_[m.shard] = cp.meta->content_version;
    applied_epoch_[m.shard] = cp.meta->epoch;
    rebuild_detector();
    reset_cells_for_shard(m.shard);
    // A verified, version-advancing checkpoint heals a corrupt fence as
    // a side effect: the applied content supersedes whatever was lost.
    corrupt_.erase(m.shard);
    repair_requested_.erase(m.shard);
    ++log_.stats().checkpoints_applied;
    log_.line(tick, "apply shard=" + std::to_string(m.shard) +
                        " v=" + std::to_string(applied_[m.shard]) +
                        " node=" + std::to_string(node()));
  } catch (const io_error&) {
    // Fenced (stale epoch, non-advancing version, foreign shard) or
    // unreadable: rejected whole, nothing was applied.
  }
}

void replica::handle(message& m, std::uint64_t tick) {
  switch (m.kind) {
    case msg_kind::view_beacon:
      apply_beacon(m, tick);
      return;
    case msg_kind::request:
      handle_request(m, tick);
      return;
    case msg_kind::ban_announce:
      tracker_->force_ban(m.client);
      known_bans_.insert(m.client);
      return;
    case msg_kind::digest_exchange:
      handle_digest(m, tick);
      return;
    case msg_kind::repair_request:
      handle_repair_request(m, tick);
      return;
    case msg_kind::repair_announce:
      handle_repair_announce(m, tick);
      return;
    case msg_kind::ban_sync:
      handle_ban_sync(m, tick);
      return;
    case msg_kind::checkpoint_announce:
      apply_checkpoint(m, tick);
      return;
    case msg_kind::handoff_batch: {
      tracker_->import_clients(m.records);
      log_.stats().handoff_clients += m.records.size();
      return;
    }
    case msg_kind::canary_vote_request: {
      // Vote yes when our own canary cells corroborate drift for any of
      // the shard's classes — an independent reservoir's second opinion.
      bool vote = false;
      for (std::size_t cls = 0; cls < cells_.size() && !vote; ++cls) {
        if (shard_of_class(cls, cfg_) != m.shard) continue;
        for (const core::drift_cell& cell : cells_[cls]) {
          if (core::cell_status(cell, cfg_.drift) !=
              core::drift_status::stable) {
            vote = true;
            break;
          }
        }
      }
      message v;
      v.kind = msg_kind::canary_vote;
      v.src = node();
      v.dst = m.src;
      v.shard = m.shard;
      v.ballot = m.ballot;
      v.ok = vote;
      net_.send_reliable(std::move(v), tick);
      return;
    }
    case msg_kind::canary_vote: {
      if (!rollout_ || rollout_->staging || m.ballot != rollout_->ballot) {
        return;
      }
      ++rollout_->votes_total;
      if (m.ok) ++rollout_->votes_yes;
      if (rollout_->votes_yes * 2 > view_.live.size()) {
        stage_refit(tick);
      } else if (rollout_->votes_total >= view_.live.size()) {
        rollout_.reset();  // quorum refused; retry at a later alarm
      }
      return;
    }
    case msg_kind::stage_request: {
      bool ok = true;
      try {
        (void)load_shard_checkpoint(m.path, m.shard, cfg_, 0, 0);
      } catch (const io_error&) {
        ok = false;
      }
      if (plan_.poisoned(m.shard, m.content_version)) ok = false;
      message r;
      r.kind = msg_kind::stage_result;
      r.src = node();
      r.dst = m.src;
      r.shard = m.shard;
      r.content_version = m.content_version;
      r.ok = ok;
      net_.send_reliable(std::move(r), tick);
      return;
    }
    case msg_kind::stage_result: {
      if (rollout_ && rollout_->staging &&
          m.content_version == rollout_->staged_version &&
          m.shard == rollout_->shard) {
        finish_rollout(m.ok, tick);
      }
      return;
    }
    case msg_kind::heartbeat:
    case msg_kind::response:
    case msg_kind::leader_beacon:
    case msg_kind::leader_ack:
    case msg_kind::ballot_request:
    case msg_kind::ballot_grant:
      return;  // not addressed to replicas
  }
}

void replica::canary_step([[maybe_unused]] std::uint64_t tick) {
  const core::detector& det = *dets_.back();
  const auto& events = det.config().events;
  for (std::size_t cls = 0; cls < canaries_.size(); ++cls) {
    if (canaries_[cls].empty()) continue;
    const tensor& x =
        *canaries_[cls][canary_cursor_[cls] % canaries_[cls].size()];
    ++canary_cursor_[cls];
    const hpc::measurement m =
        monitor_->measure(x, events, det.config().repeats);
    const core::verdict v = det.score(cls, m.mean_counts, m.q.available);
    ++log_.stats().canary_probes;
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (!m.q.event_available(e)) continue;
      const auto& model = det.model_for(cls, e);
      if (!model.has_value()) continue;
      core::cell_observe(cells_[cls][e], cfg_.drift, v.nll[e],
                         model->nll_mean, model->nll_stddev);
    }
    if (m.predicted == cls && !v.degraded && !v.abstained) {
      reservoir_[cls].push_back(m.mean_counts);
      while (reservoir_[cls].size() > cfg_.drift.reservoir_capacity) {
        reservoir_[cls].erase(reservoir_[cls].begin());
      }
    }
  }
}

void replica::service_step(std::uint64_t tick) {
  const auto horizon = cfg_.tick * static_cast<std::int64_t>(tick + 1);
  const std::vector<serve::response> rs = service_->run_until(horizon);
  for (const serve::response& r : rs) {
    const auto it = pending_.find(r.id);
    if (it == pending_.end()) continue;  // canary/internal traffic
    const pending_req ctx = it->second;
    pending_.erase(it);
    req_outcome outcome = req_outcome::failed;
    bool flagged = false;
    switch (r.outcome) {
      case serve::response::kind::served:
        outcome = r.v.adversarial_any ? req_outcome::served_flagged
                                      : req_outcome::served_clean;
        flagged = r.v.adversarial_any;
        break;
      case serve::response::kind::shed_deadline:
        outcome = req_outcome::shed;
        break;
      case serve::response::kind::failed_backend:
        outcome = req_outcome::failed;
        break;
    }
    // Re-check the ban at response time: the client's own earlier probes
    // may have crossed the ban threshold while this request sat queued,
    // and a journalled ban must win over an already-computed verdict —
    // once a ban is decided, the client is never served again, not even
    // for requests admitted before the decision.
    if ((outcome == req_outcome::served_clean ||
         outcome == req_outcome::served_flagged) &&
        tracker_->level(ctx.client) == track::escalation::banned) {
      outcome = req_outcome::rejected_banned;
      flagged = false;
    }
    // Integrity fence: a verdict whose predicted class lives on a
    // corrupt-fenced shard never leaves at full confidence — the
    // parameters backing it could not be verified against the durable
    // store. abstain_corrupt tells the router to retry degraded on a
    // peer slot instead of trusting possibly-rotted state.
    const std::uint64_t verdict_shard = shard_of_class(
        static_cast<std::size_t>(r.v.predicted), cfg_);
    if ((outcome == req_outcome::served_clean ||
         outcome == req_outcome::served_flagged) &&
        corrupt_.count(verdict_shard) != 0) {
      outcome = req_outcome::abstain_corrupt;
      flagged = false;
      ++log_.stats().verdicts_suppressed_corrupt;
      service_->note_integrity_suppression();
    }
    // Re-fence at response time: a view change while the request queued
    // means this node may no longer hold a serving slot for the range —
    // abstain instead of leaking a stale verdict. The slot held NOW, not
    // at admission, decides the degraded tag: a speculative request whose
    // server has since been promoted to primary leaves at full
    // confidence.
    bool degraded = false;
    if ((outcome == req_outcome::served_clean ||
         outcome == req_outcome::served_flagged)) {
      const auto slot = fence_slot(ctx.range, tick);
      if (!slot.has_value() || (!ctx.speculative && *slot != 0)) {
        outcome = req_outcome::abstain_fenced;
        flagged = false;
      } else {
        degraded = *slot != 0;
        if (degraded) ++log_.stats().served_secondary;
        if (probe_) probe_(node(), ctx.client, degraded, verdict_shard);
      }
    }
    respond(tick, ctx.req_id, ctx.client, ctx.range, outcome, flagged,
            degraded);
  }
}

void replica::handoff_step(std::uint64_t tick) {
  std::vector<std::uint32_t> done;
  for (const auto& [range, dst] : handoffs_) {
    const std::uint32_t r = range;
    auto batch = tracker_->export_clients(
        cfg_.handoff_batch,
        [&](std::uint64_t client) { return range_of_client(client, cfg_) == r; });
    if (batch.empty()) {
      done.push_back(r);
      continue;
    }
    message m;
    m.kind = msg_kind::handoff_batch;
    m.src = node();
    m.dst = dst;
    m.range = r;
    m.records = std::move(batch);
    net_.send_reliable(std::move(m), tick);
  }
  for (const std::uint32_t r : done) handoffs_.erase(r);
}

void replica::rollout_step(std::uint64_t tick) {
  if (rollout_) {
    if (tick - rollout_->started > rollout_deadline(cfg_)) {
      rollout_.reset();  // voter or validator died; retry on next alarm
      staged_det_.reset();
    }
    return;
  }
  if (tick - last_ballot_tick_ < cfg_.canary_interval) return;

  // Alarm scan over owned shards only: the shard owner is the replica
  // that refits and republishes.
  for (const std::uint64_t s :
       shards_owned(view_, node(), cfg_.class_shards)) {
    // A corrupt-fenced shard must not refit: the reservoirs were filled
    // against parameters we can no longer vouch for.
    if (corrupt_.count(s) != 0) continue;
    bool alarm = false;
    for (std::size_t cls = 0; cls < cells_.size() && !alarm; ++cls) {
      if (shard_of_class(cls, cfg_) != s) continue;
      for (std::size_t e = 0; e < cells_[cls].size(); ++e) {
        if (!dets_.back()->model_for(cls, e).has_value()) continue;
        if (core::cell_status(cells_[cls][e], cfg_.drift) ==
            core::drift_status::alarm) {
          alarm = true;
          break;
        }
      }
    }
    if (!alarm) continue;

    ++log_.stats().drift_alarms;
    last_ballot_tick_ = tick;
    rollout_ = rollout_state{};
    rollout_->shard = s;
    rollout_->ballot = ++ballot_counter_;
    rollout_->votes_yes = 1;  // our own reservoir raised the alarm
    rollout_->votes_total = 1;
    rollout_->started = tick;
    log_.line(tick, "ballot shard=" + std::to_string(s) +
                        " node=" + std::to_string(node()));
    if (rollout_->votes_yes * 2 > view_.live.size()) {
      stage_refit(tick);  // single-replica fleet: own vote is a majority
      return;
    }
    for (const std::uint32_t peer : view_.live) {
      if (peer == node()) continue;
      message m;
      m.kind = msg_kind::canary_vote_request;
      m.src = node();
      m.dst = peer;
      m.shard = s;
      m.ballot = rollout_->ballot;
      m.epoch = view_.epoch;
      net_.send_reliable(std::move(m), tick);
    }
    return;
  }
}

void replica::stage_refit(std::uint64_t tick) {
  const std::uint64_t s = rollout_->shard;
  const std::size_t classes = deps_.base->num_classes();
  const std::size_t events = deps_.base->config().events.size();

  core::benign_template tpl(classes, events);
  bool enough = true;
  for (std::size_t cls = 0; cls < classes; ++cls) {
    if (shard_of_class(cls, cfg_) != s) continue;
    if (!dets_.back()->model_for(cls, 0).has_value() &&
        !dets_.back()->model_for(cls, events - 1).has_value()) {
      continue;  // class was never modeled; nothing to recalibrate
    }
    if (reservoir_[cls].size() < cfg_.drift.min_refit_rows) {
      enough = false;
      break;
    }
    for (const std::vector<double>& row : reservoir_[cls]) {
      tpl.add_row(cls, row);
    }
  }
  if (!enough) {
    rollout_.reset();  // not enough canary evidence yet; keep collecting
    return;
  }

  // Thread-invariant refit (detector::fit's per-cell seeded EM), so a
  // rollout's parameters are bitwise identical at any thread count.
  core::detector refit =
      core::detector::fit(tpl, deps_.base->config(), cfg_.serve.threads);
  staged_det_ = std::make_unique<core::detector>(std::move(refit));

  rollout_->staged_version = applied_[s] + 1;
  core::checkpoint_meta meta;
  meta.epoch = view_.epoch;
  meta.shard_index = s;
  meta.shard_count = cfg_.class_shards;
  meta.content_version = rollout_->staged_version;
  meta.rollback = false;
  rollout_->staged_path =
      stage_shard_checkpoint(*staged_det_, cfg_, deps_.dir, s, meta);
  rollout_->staging = true;
  log_.line(tick, "stage shard=" + std::to_string(s) +
                      " v=" + std::to_string(rollout_->staged_version));

  // Canary validation on an independent replica when one exists.
  std::uint32_t validator = node();
  for (const std::uint32_t peer : view_.live) {
    if (peer != node()) {
      validator = peer;
      break;
    }
  }
  if (validator == node()) {
    bool ok = true;
    try {
      (void)load_shard_checkpoint(rollout_->staged_path, s, cfg_, 0, 0);
    } catch (const io_error&) {
      ok = false;
    }
    if (plan_.poisoned(s, rollout_->staged_version)) ok = false;
    finish_rollout(ok, tick);
    return;
  }
  message m;
  m.kind = msg_kind::stage_request;
  m.src = node();
  m.dst = validator;
  m.shard = s;
  m.content_version = rollout_->staged_version;
  m.path = rollout_->staged_path;
  m.epoch = view_.epoch;
  net_.send_reliable(std::move(m), tick);
}

void replica::finish_rollout(bool ok, std::uint64_t tick) {
  const std::uint64_t s = rollout_->shard;
  core::checkpoint_meta meta;
  meta.shard_index = s;
  meta.shard_count = cfg_.class_shards;
  meta.epoch = view_.epoch;

  std::string path;
  if (ok) {
    // Promote: the staged parameters become this shard's content.
    merge_shard(models_, *staged_det_, s, cfg_);
    meta.content_version = rollout_->staged_version;
    meta.rollback = false;
    applied_[s] = meta.content_version;
    applied_epoch_[s] = view_.epoch;
    rebuild_detector();
    path = save_shard_checkpoint(*dets_.back(), cfg_, deps_.dir, s, meta);
    ++log_.stats().rollouts;
  } else {
    // Roll back: republish the LAST GOOD parameters under a higher
    // content version, flagged as a rollback, so version monotonicity
    // holds everywhere and the poisoned staged file is permanently
    // superseded.
    meta.content_version = rollout_->staged_version + 1;
    meta.rollback = true;
    applied_[s] = meta.content_version;
    applied_epoch_[s] = view_.epoch;
    path = save_shard_checkpoint(*dets_.back(), cfg_, deps_.dir, s, meta);
    ++log_.stats().rollbacks;
  }
  ++log_.stats().checkpoints_published;
  log_.line(tick, "promote shard=" + std::to_string(s) +
                      " v=" + std::to_string(meta.content_version) +
                      " rollback=" + (meta.rollback ? "1" : "0"));
  for (std::size_t i = 0; i < cfg_.replicas; ++i) {
    if (replica_node(i) == node()) continue;
    message m;
    m.kind = msg_kind::checkpoint_announce;
    m.src = node();
    m.dst = replica_node(i);
    m.shard = s;
    m.content_version = meta.content_version;
    m.epoch = meta.epoch;
    m.path = path;
    net_.send_reliable(std::move(m), tick);
  }
  reset_cells_for_shard(s);
  rollout_.reset();
  staged_det_.reset();
}

void replica::publish_checkpoints([[maybe_unused]] std::uint64_t tick) {
  // Durability refresh of owned shards at their current applied version:
  // no announce (receivers would fence a non-advancing version), just a
  // rewrite of the shipped files so a fresh store recovers them.
  for (const std::uint64_t s :
       shards_owned(view_, node(), cfg_.class_shards)) {
    // Never republish a corrupt-fenced shard: our in-memory content for
    // it is genesis fallback, and writing it out would launder stale
    // defaults into a checksum-valid "latest" file.
    if (corrupt_.count(s) != 0) continue;
    core::checkpoint_meta meta;
    meta.shard_index = s;
    meta.shard_count = cfg_.class_shards;
    meta.epoch = applied_epoch_[s];
    meta.content_version = applied_[s];
    meta.rollback = false;
    save_shard_checkpoint(*dets_.back(), cfg_, deps_.dir, s, meta);
    ++log_.stats().checkpoints_published;
  }
}

std::uint32_t replica::content_digest(std::uint64_t shard) const {
  return shard_content_digest(models_, shard, cfg_);
}

bool replica::owns_shard_slot(std::uint64_t shard) const {
  for (std::uint32_t k = 0; k < cfg_.replication; ++k) {
    const auto owner = shard_owner_k(view_, shard, k);
    if (owner.has_value() && *owner == node()) return true;
  }
  return false;
}

void replica::scrub_step(std::uint64_t tick) {
  ++log_.stats().scrub_rounds;
  repairs_in_round_ = 0;

  // 1. Self-audit: re-verify the on-disk latest file of every shard we
  // own. Our in-memory content is the applied truth — if the file rotted
  // underneath us, republish it from memory. Fenced shards are skipped:
  // for those, memory is genesis fallback, not truth.
  for (const std::uint64_t s :
       shards_owned(view_, node(), cfg_.class_shards)) {
    if (corrupt_.count(s) != 0) continue;
    const std::string latest = shard_latest_path(deps_.dir, s);
    if (!std::filesystem::exists(latest)) continue;
    if (verify_checkpoint_file(latest)) continue;
    core::checkpoint_meta meta;
    meta.shard_index = s;
    meta.shard_count = cfg_.class_shards;
    meta.epoch = applied_epoch_[s];
    meta.content_version = applied_[s];
    meta.rollback = false;
    save_shard_checkpoint(*dets_.back(), cfg_, deps_.dir, s, meta);
    ++log_.stats().repairs_local;
    log_.line(tick, "heal shard=" + std::to_string(s) +
                        " node=" + std::to_string(node()));
  }

  // 2. Compact range digest over every shard plus the ban set. The root
  // is journalled — byte-identical journals across thread counts are the
  // proof that digest computation is deterministic.
  std::vector<shard_digest_entry> entries;
  std::vector<std::uint32_t> leaves;
  entries.reserve(cfg_.class_shards);
  leaves.reserve(cfg_.class_shards + 1);
  for (std::uint64_t s = 0; s < cfg_.class_shards; ++s) {
    shard_digest_entry e;
    e.shard = s;
    e.version = applied_[s];
    e.epoch = applied_epoch_[s];
    e.crc = shard_content_digest(models_, s, cfg_);
    e.fenced = corrupt_.count(s) != 0;
    leaves.push_back(e.crc);
    entries.push_back(e);
  }
  const std::uint32_t ban_crc = ban_set_digest(known_bans_);
  leaves.push_back(ban_crc);
  log_.line(tick, "scrub node=" + std::to_string(node()) +
                      " root=" + std::to_string(digest_root(leaves)));

  // 3. Exchange digests with every live peer. Best-effort sends, like
  // gossip: a lost digest only delays the next repair opportunity by one
  // scrub period, so there is no retry storm to bound.
  if (plan_.digest_blackout_at(tick)) {
    ++log_.stats().digests_suppressed;
    return;
  }
  for (const std::uint32_t peer : view_.live) {
    if (peer == node()) continue;
    message m;
    m.kind = msg_kind::digest_exchange;
    m.src = node();
    m.dst = peer;
    m.epoch = view_.epoch;
    m.digests = entries;
    m.ban_crc = ban_crc;
    m.ban_count = known_bans_.size();
    net_.send(std::move(m), tick);
    ++log_.stats().digests_sent;
  }
}

void replica::handle_digest(const message& m, std::uint64_t tick) {
  for (const shard_digest_entry& e : m.digests) {
    if (e.shard >= cfg_.class_shards) continue;
    const std::uint64_t s = e.shard;
    const bool we_fenced = corrupt_.count(s) != 0;
    const std::uint64_t our_v = applied_[s];
    const std::uint64_t our_e = applied_epoch_[s];
    // A fenced peer advertises nothing worth pulling; our own divergence
    // classes:
    //   * peer strictly ahead in (epoch, version) — we missed content;
    //   * we are fenced and the peer holds content at or above our
    //     (genesis) generation — the repair that unfences us;
    //   * same (epoch, version) but different bytes — silent divergence
    //     (a stale resurrection passed its checksum); the lower node id
    //     is the deterministic canonical side and the higher one pulls.
    const bool peer_ahead =
        !e.fenced &&
        (e.epoch > our_e || (e.epoch == our_e && e.version > our_v));
    const bool fenced_pull =
        we_fenced && !e.fenced &&
        (e.epoch > our_e || (e.epoch == our_e && e.version >= our_v));
    const bool same_gen_diverged =
        !e.fenced && !we_fenced && e.epoch == our_e && e.version == our_v &&
        e.crc != shard_content_digest(models_, s, cfg_);
    if (!peer_ahead && !fenced_pull && !same_gen_diverged) continue;
    ++log_.stats().digest_mismatches;
    const bool pull =
        peer_ahead || fenced_pull || (same_gen_diverged && m.src < node());
    if (!pull) continue;
    // Pull only from an ownership-slot holder of the shard (mirror of
    // the server-side authority check): a bystander's digest proves
    // divergence but its content has no authority, and requesting from
    // it would just burn this period's repair budget on a refusal. At
    // replication 1 the sole holder is the corrupted node itself, so no
    // request is ever sent — the shard fails closed.
    bool src_holder = false;
    for (std::uint32_t k = 0; k < cfg_.replication && !src_holder; ++k) {
      const auto owner = shard_owner_k(view_, s, k);
      src_holder = owner.has_value() && *owner == m.src;
    }
    if (!src_holder) continue;
    // Rate bound: at most kRepairBatch pulls per scrub period, and no
    // duplicate request for a shard already in flight.
    const auto it = repair_requested_.find(s);
    if (it != repair_requested_.end() &&
        tick < it->second + cfg_.scrub_period) {
      continue;
    }
    if (repairs_in_round_ >= kRepairBatch) continue;
    ++repairs_in_round_;
    repair_requested_[s] = tick;
    message req;
    req.kind = msg_kind::repair_request;
    req.src = node();
    req.dst = m.src;
    req.shard = s;
    req.epoch = view_.epoch;
    net_.send_reliable(std::move(req), tick);
    ++log_.stats().repairs_requested;
    log_.line(tick, "repair-request shard=" + std::to_string(s) +
                        " from=" + std::to_string(m.src) +
                        " node=" + std::to_string(node()));
  }

  // Ban anti-entropy: when the peer's ban surface differs from ours,
  // push them our full set (they run the same rule against our digest,
  // so both sides converge to the union). Rate-bounded per peer.
  if (m.ban_count != known_bans_.size() ||
      m.ban_crc != ban_set_digest(known_bans_)) {
    const auto it = ban_synced_.find(m.src);
    if (!known_bans_.empty() &&
        (it == ban_synced_.end() ||
         tick >= it->second + cfg_.scrub_period)) {
      ban_synced_[m.src] = tick;
      message bs;
      bs.kind = msg_kind::ban_sync;
      bs.src = node();
      bs.dst = m.src;
      bs.bans.assign(known_bans_.begin(), known_bans_.end());
      net_.send_reliable(std::move(bs), tick);
    }
  }
}

void replica::handle_repair_request(const message& m, std::uint64_t tick) {
  const std::uint64_t s = m.shard;
  if (s >= cfg_.class_shards) return;
  // Authority: only a current ownership-slot holder of the shard, and
  // never a fenced one, may act as a repair source. At replication 1 a
  // corrupted sole owner therefore has no authorized peer — the shard
  // FAILS CLOSED instead of resurrecting from a bystander's copy whose
  // lineage nobody vouches for.
  if (corrupt_.count(s) != 0 || !owns_shard_slot(s)) return;
  if (repairs_served_tick_ != tick) {
    repairs_served_tick_ = tick;
    repairs_served_count_ = 0;
  }
  if (repairs_served_count_ >= kRepairBatch) return;
  ++repairs_served_count_;
  // Republish our applied content (also heals the shared latest file if
  // it was the corrupt artifact) and hand the requester the path.
  core::checkpoint_meta meta;
  meta.shard_index = s;
  meta.shard_count = cfg_.class_shards;
  meta.epoch = applied_epoch_[s];
  meta.content_version = applied_[s];
  meta.rollback = false;
  const std::string path =
      save_shard_checkpoint(*dets_.back(), cfg_, deps_.dir, s, meta);
  message r;
  r.kind = msg_kind::repair_announce;
  r.src = node();
  r.dst = m.src;
  r.shard = s;
  r.content_version = meta.content_version;
  r.epoch = meta.epoch;
  r.path = path;
  net_.send_reliable(std::move(r), tick);
  ++log_.stats().repairs_served;
  log_.line(tick, "repair-serve shard=" + std::to_string(s) +
                      " to=" + std::to_string(m.src) +
                      " node=" + std::to_string(node()));
}

void replica::handle_repair_announce(const message& m, std::uint64_t tick) {
  const std::uint64_t s = m.shard;
  if (s >= cfg_.class_shards) return;
  const bool was_fenced = corrupt_.count(s) != 0;
  try {
    // Epoch/version floors of 0 because repair may legitimately restore
    // the SAME (epoch, version) we already hold (divergence repair) —
    // the explicit guard below enforces the real monotonicity: never
    // accept content strictly below our applied (epoch, version), so a
    // deposed primary can never repair us backwards.
    core::checkpoint cp = load_shard_checkpoint(m.path, s, cfg_, 0, 0);
    const bool backwards =
        cp.meta->epoch < applied_epoch_[s] ||
        (cp.meta->epoch == applied_epoch_[s] &&
         cp.meta->content_version < applied_[s]);
    if (backwards && !was_fenced) return;
    merge_shard(models_, cp.det, s, cfg_);
    applied_[s] = cp.meta->content_version;
    applied_epoch_[s] = cp.meta->epoch;
    rebuild_detector();
    reset_cells_for_shard(s);
    corrupt_.erase(s);
    repair_requested_.erase(s);
    ++log_.stats().repairs_completed;
    log_.line(tick, std::string("repair shard=") + std::to_string(s) +
                        " v=" + std::to_string(applied_[s]) +
                        " node=" + std::to_string(node()) +
                        (was_fenced ? " unfenced=1" : ""));
  } catch (const io_error&) {
    // The repair artifact itself failed verification: stay fenced and
    // let a later scrub round retry against a (possibly different) peer.
    repair_requested_.erase(s);
  }
}

void replica::handle_ban_sync(const message& m, std::uint64_t tick) {
  bool added = false;
  for (const std::uint64_t c : m.bans) {
    if (!known_bans_.insert(c).second) continue;
    tracker_->force_ban(c);
    local_bans_.push_back(c);
    added = true;
    ++log_.stats().bans_synced;
  }
  if (!added) return;
  // Make the synced decisions durable HERE too: after this write, even
  // if every other ledger is lost, these bans replay from ours.
  write_ban_ledger(ban_ledger_path(deps_.dir, node()), local_bans_);
  log_.line(tick, "ban-sync node=" + std::to_string(node()) +
                      " from=" + std::to_string(m.src));
}

void replica::reset_cells_for_shard(std::uint64_t shard) {
  // The shard's parameters changed: sequential statistics accumulated
  // against the old models are meaningless (and would instantly re-alarm).
  for (std::size_t cls = 0; cls < cells_.size(); ++cls) {
    if (shard_of_class(cls, cfg_) != shard) continue;
    for (core::drift_cell& cell : cells_[cls]) cell = core::drift_cell{};
  }
}

void replica::on_tick(std::uint64_t tick) {
  if (!up_ || stalled_) return;
  clock_->advance_to(cfg_.tick * static_cast<std::int64_t>(tick));

  std::vector<message> msgs;
  msgs.swap(inbox_);
  for (message& m : msgs) handle(m, tick);

  if (tick % cfg_.hb_interval == 0) {
    // Heartbeat the WHOLE controller group, not just the leader: every
    // standby keeps a warm failure-detection table, so a freshly elected
    // leader declares deaths from real observations instead of a blank
    // slate (which would read as "everyone just heartbeat" and stall
    // failover by a full failure_timeout).
    for (std::size_t j = 0; j < cfg_.controllers; ++j) {
      message hb;
      hb.kind = msg_kind::heartbeat;
      hb.src = node();
      hb.dst = controller_node(j);
      net_.send(std::move(hb), tick);
    }
  }
  if (tick > 0 && tick % cfg_.canary_interval == 0) canary_step(tick);
  service_step(tick);
  handoff_step(tick);
  rollout_step(tick);
  if (tick > 0 && tick % cfg_.checkpoint_interval == 0) {
    publish_checkpoints(tick);
  }
  if (tick > 0 && tick % cfg_.scrub_period == 0) scrub_step(tick);
}

}  // namespace advh::fleet
