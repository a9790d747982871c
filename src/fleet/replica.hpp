// One fleet worker replica: an embedded detection_service + query_tracker
// behind the epoch fence, with crash/recovery, checkpoint shipping,
// fingerprint-range handoff and quorum-gated recalibration.
//
// A replica is a state machine driven once per simulation tick. All of
// its volatile state — service, tracker, virtual clock, model mirror,
// drift cells — dies on crash() and is rebuilt by recover() from the
// durable artifacts alone: shard checkpoint files and ban ledgers
// (fleet/checkpoint). What recovery restores is therefore exactly what
// the fleet's durability story claims to protect: detector parameters as
// of the last promoted checkpoint, and every ban decision ever persisted
// by any replica.
//
// Serving discipline (the epoch fence): a replica produces a verdict for
// a routed request only when ALL of
//   1. the controller's acknowledgment of this replica's heartbeats
//      (carried on every beacon) is at most `lease` ticks old,
//   2. the request's epoch equals its installed view epoch,
//   3. it holds an ownership slot for the request's ring range under
//      that view — the PRIMARY slot for a normally routed request, any
//      slot below the replication factor for a speculative re-route
//      (which it serves under a degraded-confidence tag),
//   4. any range it newly covers through a view change has outlived its
//      acquisition grace (the previous — possibly perfectly healthy —
//      owner's lease must have provably expired first),
// hold — both at admission and again when the response leaves (a view
// may change while a request is queued). Anything else resolves
// abstain_fenced: fail closed, never a stale verdict. Combined with the
// config invariant lease + max_delay < failure_timeout, a replica whose
// ranges have been reassigned is provably self-fenced before its
// successor can begin serving them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/detector_io.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/config.hpp"
#include "fleet/events.hpp"
#include "fleet/fault_plan.hpp"
#include "fleet/membership.hpp"
#include "fleet/net.hpp"
#include "hpc/monitor.hpp"
#include "serve/service.hpp"
#include "track/tracker.hpp"

namespace advh::fleet {

/// What a replica needs from the outside world. The monitor factory is
/// called at every boot (genesis and recovery), so each boot starts from
/// a deterministic measurement-noise state.
struct replica_deps {
  /// Genesis detector (full model set, content version 1). Must outlive
  /// the fleet.
  const core::detector* base = nullptr;
  std::function<std::unique_ptr<hpc::hpc_monitor>()> make_monitor;
  /// Shared checkpoint/ledger directory (models the shipped-state store).
  std::string dir;
  /// Known-benign labelled inputs for canary probing; drives drift cells
  /// and fills the recalibration reservoirs. Must outlive the fleet.
  const std::vector<std::pair<std::size_t, tensor>>* canary_pool = nullptr;
};

class replica {
 public:
  replica(std::size_t index, const fleet_config& cfg, replica_deps deps,
          sim_net& net, const fault_plan& plan, event_log& log);

  std::uint32_t node() const noexcept { return replica_node(index_); }
  bool up() const noexcept { return up_; }
  bool is_stalled() const noexcept { return stalled_; }

  // Fault injection (sim tick loop). crash() drops volatile state and the
  // inbox; recover() reboots from disk; stall()/unstall() freeze and
  // resume processing (the inbox keeps buffering while stalled).
  void crash(std::uint64_t tick);
  void recover(std::uint64_t tick);
  void stall(std::uint64_t tick);
  void unstall(std::uint64_t tick);

  /// Delivers one network message (dropped when the replica is down).
  void enqueue(message m);

  /// One simulation tick: clock sync, inbox, heartbeat, canary probes,
  /// service rounds, handoff and rollout progress, periodic checkpoints.
  void on_tick(std::uint64_t tick);

  /// Split-brain / integrity instrumentation: invoked with
  /// (node, client, degraded, shard) immediately before a served verdict
  /// leaves this replica, where `shard` is the template shard the
  /// verdict's predicted class maps to. The sim points this at the
  /// ELECTED leader's authoritative view; `degraded` tells the audit
  /// whether a secondary slot legitimizes the serve, and `shard` lets it
  /// assert that no checksum-fenced shard ever backs a verdict.
  void set_serve_probe(std::function<void(std::uint32_t, std::uint64_t, bool,
                                          std::uint64_t)>
                           p) {
    probe_ = std::move(p);
  }

  /// True while `shard` is corrupt-fenced on this replica: its durable
  /// copy failed checksum verification at boot (or a repair has not yet
  /// landed), so no verdict backed by it may leave at full confidence.
  bool shard_fenced(std::uint64_t shard) const {
    return corrupt_.count(shard) != 0;
  }
  const std::set<std::uint64_t>& corrupt_shards() const { return corrupt_; }
  /// Canonical CRC32C of this replica's in-memory content for `shard`
  /// (fleet/integrity) — exposed for determinism tests.
  std::uint32_t content_digest(std::uint64_t shard) const;

  const membership_view& view() const noexcept { return view_; }
  std::uint64_t applied_version(std::uint64_t shard) const;
  const serve::detection_service* service() const noexcept {
    return service_.get();
  }
  const track::query_tracker* tracker() const noexcept {
    return tracker_.get();
  }

 private:
  void boot(std::uint64_t tick, bool genesis);
  void rebuild_detector();
  /// The ownership slot this node may serve `range` under right now, or
  /// nullopt when fenced (no view, stale lease, no slot, or inside the
  /// acquisition grace). Slot 0 = primary; callers decide whether a
  /// non-primary slot is acceptable (speculative re-routes only).
  std::optional<std::uint32_t> fence_slot(std::uint32_t range,
                                          std::uint64_t tick) const;
  void respond(std::uint64_t tick, std::uint64_t req_id, std::uint64_t client,
               std::uint32_t range, req_outcome outcome, bool flagged,
               bool degraded = false);

  void handle(message& m, std::uint64_t tick);
  void handle_request(message& m, std::uint64_t tick);
  void apply_beacon(const message& m, std::uint64_t tick);
  void apply_checkpoint(const message& m, std::uint64_t tick);
  void persist_ban(std::uint64_t client, std::uint64_t tick);
  void replay_ban_ledgers(std::uint64_t tick);

  // --- anti-entropy (integrity tentpole) ---
  /// Periodic scrub: re-verify owned on-disk files (republishing from
  /// clean memory on rot), then exchange shard/ban digests with every
  /// live peer (best-effort, like gossip — loss only delays repair).
  void scrub_step(std::uint64_t tick);
  void handle_digest(const message& m, std::uint64_t tick);
  void handle_repair_request(const message& m, std::uint64_t tick);
  void handle_repair_announce(const message& m, std::uint64_t tick);
  void handle_ban_sync(const message& m, std::uint64_t tick);
  /// Whether this node currently holds ANY ownership slot for `shard`
  /// below the replication factor — the authority test for acting as a
  /// repair source.
  bool owns_shard_slot(std::uint64_t shard) const;

  void canary_step(std::uint64_t tick);
  void service_step(std::uint64_t tick);
  void handoff_step(std::uint64_t tick);
  void rollout_step(std::uint64_t tick);
  void stage_refit(std::uint64_t tick);
  void finish_rollout(bool ok, std::uint64_t tick);
  void publish_checkpoints(std::uint64_t tick);
  void reset_cells_for_shard(std::uint64_t shard);

  std::size_t index_;
  const fleet_config& cfg_;
  replica_deps deps_;
  sim_net& net_;
  const fault_plan& plan_;
  event_log& log_;

  bool up_ = false;
  bool stalled_ = false;
  std::vector<message> inbox_;

  // --- volatile node state, rebuilt at every boot ---
  std::unique_ptr<serve::virtual_clock> clock_;
  std::unique_ptr<hpc::hpc_monitor> monitor_;
  std::unique_ptr<track::query_tracker> tracker_;
  /// Every detector generation this boot has served with; the service
  /// holds a pointer into the latest, older ones stay alive until reboot.
  std::vector<std::unique_ptr<core::detector>> dets_;
  /// Full model mirror (base + every applied shard overlay).
  std::vector<std::vector<std::optional<core::event_model>>> models_;
  std::unique_ptr<serve::detection_service> service_;

  membership_view view_;
  /// Monotone max of received beacon send ticks — the lease clock. Using
  /// the *send* tick means stale beacons buffered during a stall can
  /// never unfence a replica after it resumes.
  std::uint64_t freshest_beacon_ = 0;

  struct pending_req {
    std::uint64_t req_id = 0;
    std::uint64_t client = 0;
    std::uint32_t range = 0;
    /// Speculative re-route: any ownership slot may serve it (degraded).
    bool speculative = false;
  };
  /// service submission id -> routed-request context.
  std::map<std::uint64_t, pending_req> pending_;

  /// This node's durable ban decisions, mirrored in its ledger file.
  std::vector<std::uint64_t> local_bans_;
  /// Union of every ban this boot knows about (all ledgers at replay,
  /// every announce and ban_sync since) — the surface the anti-entropy
  /// ban digest is computed over.
  std::set<std::uint64_t> known_bans_;
  /// Per template shard: applied content version and its epoch fence.
  std::map<std::uint64_t, std::uint64_t> applied_;
  std::map<std::uint64_t, std::uint64_t> applied_epoch_;

  /// Corrupt-fenced shards: their durable copy failed verification at
  /// boot and no repair has landed yet. A fenced shard serves no
  /// full-confidence verdict, publishes no checkpoint and answers no
  /// repair_request (it would launder genesis state as repaired truth).
  std::set<std::uint64_t> corrupt_;
  /// shard -> tick of the last repair_request we sent for it; suppresses
  /// re-requests within one scrub period.
  std::map<std::uint64_t, std::uint64_t> repair_requested_;
  /// peer -> tick of the last ban_sync we pushed to it (rate bound).
  std::map<std::uint32_t, std::uint64_t> ban_synced_;
  /// repair_requests issued since the last scrub (<= the repair batch bound).
  std::size_t repairs_in_round_ = 0;
  /// repair_requests answered this tick (<= the repair batch bound).
  std::uint64_t repairs_served_tick_ = 0;
  std::size_t repairs_served_count_ = 0;

  // --- drift / recalibration ---
  std::vector<std::vector<core::drift_cell>> cells_;  // [class][event]
  std::vector<std::vector<std::vector<double>>> reservoir_;  // [class][row]
  std::vector<std::vector<const tensor*>> canaries_;  // [class] -> inputs
  std::vector<std::size_t> canary_cursor_;

  struct rollout_state {
    std::uint64_t shard = 0;
    std::uint64_t staged_version = 0;
    std::uint64_t ballot = 0;
    std::uint64_t votes_yes = 0;
    std::uint64_t votes_total = 0;
    std::uint64_t started = 0;
    bool staging = false;  ///< false: collecting votes; true: validating
    std::string staged_path;
  };
  std::optional<rollout_state> rollout_;
  std::unique_ptr<core::detector> staged_det_;
  std::uint64_t ballot_counter_ = 0;
  std::uint64_t last_ballot_tick_ = 0;

  /// Active range handoffs: range -> destination node.
  std::map<std::uint32_t, std::uint32_t> handoffs_;
  /// Ranges newly covered (any ownership slot) through a view change ->
  /// the change beacon's send tick. fence_slot refuses to serve such a
  /// range until the previous owner's lease has provably expired (send
  /// tick + lease), closing the healthy-predecessor window a membership
  /// addition opens.
  std::map<std::uint32_t, std::uint64_t> acquired_at_;
  /// Ranges whose PRIMARY slot was newly acquired while we already held a
  /// lower slot (a secondary promoted by a view change) -> the change
  /// beacon's send tick. Until the deposed primary's lease has run out,
  /// fence_slot demotes such a range to degraded-only serving: the old
  /// primary may still be serving it full-confidence under its stale view
  /// and lease, and only one full-confidence server per range may exist
  /// at any instant.
  std::map<std::uint32_t, std::uint64_t> promoted_at_;

  std::function<void(std::uint32_t, std::uint64_t, bool, std::uint64_t)>
      probe_;
};

}  // namespace advh::fleet
