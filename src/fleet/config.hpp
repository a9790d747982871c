// Fleet-wide configuration: replica count, shard/ring geometry, the
// discrete-event timing contract, and the simulated-network model.
//
// Everything here is counted in *ticks* — the quantum of the fleet
// simulation's discrete-event loop. Each tick corresponds to
// `fleet_config::tick` of virtual-clock time on every replica, so fleet
// timing composes with the serve layer's deadline machinery without unit
// mismatches.
//
// The one non-negotiable relation is the split-brain safety condition
// validated by `validate()`:
//
//   lease + max_delay < failure_timeout
//
// A replica self-fences (serves nothing, abstains fail-closed) once its
// lease clock — the controller's last acknowledged heartbeat from it,
// carried on every view beacon — is older than `lease`. The controller
// only reassigns a replica's shards after `failure_timeout` of heartbeat
// silence, and failure_timeout > lease + max_delay >= lease, so by the
// time any reassignment takes effect the stale owner's best possible
// acked-heartbeat is already `failure_timeout` old: it is provably
// self-fenced and can never serve a verdict concurrently with its
// successor. (The lease deliberately runs on acked heartbeats rather
// than beacon send times: heartbeat loss and beacon loss are independent
// under a lossy network, and a send-time lease would leave a replica
// whose heartbeats are being dropped unfenced while it is declared dead.)
#pragma once

#include <chrono>
#include <cstdint>

#include "core/drift.hpp"
#include "serve/clock.hpp"
#include "serve/service.hpp"
#include "track/tracker.hpp"

namespace advh::fleet {

struct fleet_config {
  /// Worker replicas (node ids 2 .. replicas+1; 1 = router; the
  /// controller group lives at node ids 100..).
  std::size_t replicas = 3;
  /// Replicated controller group size. One of them holds the leadership
  /// lease and is the view authority; the others are warm standbys that
  /// elect a successor when the leader goes silent. 1 degenerates to the
  /// single-controller fleet (self-quorum, no failover).
  std::size_t controllers = 3;
  /// Ownership replication factor: each ring range / template shard has
  /// this many owners (slot 0 = primary, serves normally; higher slots
  /// serve speculative re-routes under a degraded-confidence tag).
  /// Capped by the live replica count at evaluation time.
  std::uint32_t replication = 2;
  /// (model, class) template shards: class c belongs to shard
  /// c % class_shards.
  std::uint64_t class_shards = 2;
  /// Fingerprint-ring ranges: the 2^64 client-hash ring splits into this
  /// many equal arcs, each owned by one replica under the current view.
  std::uint32_t ring_ranges = 8;
  /// Virtual-clock time one tick represents on every replica.
  serve::clock_duration tick = std::chrono::milliseconds(1);

  // --- membership / fencing (ticks) ---
  std::uint64_t hb_interval = 2;
  /// Heartbeat silence after which the controller declares a replica dead
  /// and bumps the view epoch.
  std::uint64_t failure_timeout = 16;
  /// Beacon-freshness fence: a replica whose freshest beacon send-tick is
  /// older than this abstains instead of serving.
  std::uint64_t lease = 8;

  // --- controller leadership (ticks) ---
  /// Leader silence after which a standby starts a candidacy (plus an
  /// index-proportional stagger that deterministically avoids split
  /// votes).
  std::uint64_t ctl_failure_timeout = 16;
  /// Leadership lease: a leader publishes views only while a quorum of
  /// controllers acked its term beacon within this many ticks. The
  /// split-brain condition ctl_lease + max_delay < ctl_failure_timeout
  /// mirrors the worker-side one.
  std::uint64_t ctl_lease = 8;

  // --- routing ---
  /// Router-side deadline: a routed request with no response within this
  /// many ticks resolves fail-closed as an abstain.
  std::uint64_t request_timeout = 12;
  /// Ticks of primary silence before the router speculatively re-routes
  /// a pending request to the secondary owner. Must leave the secondary
  /// room to respond inside request_timeout.
  std::uint64_t speculate_after = 4;

  // --- checkpoint shipping / recalibration (ticks) ---
  /// Period of a shard owner's checkpoint republish (plus one at boot and
  /// one at every recalibration promotion).
  std::uint64_t checkpoint_interval = 32;
  std::uint64_t canary_interval = 16;
  /// Clients moved per tick per range during a fingerprint-range handoff
  /// (one batch in flight per range).
  std::size_t handoff_batch = 4;

  // --- integrity / anti-entropy (ticks) ---
  /// Period of the anti-entropy scrub: every this many ticks a replica
  /// re-verifies its own on-disk artifacts and exchanges range digests
  /// with its ownership peers (read repair rides on the divergences).
  std::uint64_t scrub_period = 24;
  /// Per-(file, opportunity) probability of a seeded disk-corruption
  /// fault when corruption chaos is enabled (0 disables).
  double corrupt_rate = 0.0;

  // --- simulated network ---
  /// Per-attempt loss probability for every simulated message.
  double loss_rate = 0.0;
  std::uint64_t min_delay = 0;  ///< delivery delay lower bound (ticks)
  std::uint64_t max_delay = 2;  ///< delivery delay upper bound (ticks)
  /// Retransmission period for reliable control messages.
  std::uint64_t retransmit = 3;

  std::uint64_t seed = 0xf1ee7;

  /// Per-replica embedded service / tracker / drift policies.
  serve::serve_config serve{};
  track::track_config track{};
  core::drift_policy drift{};
};

/// Applies the strict environment overrides to `base` and returns it:
/// ADVH_FLEET_REPLICAS (integer in [1, 64]) overrides `replicas`,
/// ADVH_FLEET_CONTROLLERS (integer in [1, 7]) overrides `controllers`,
/// ADVH_FLEET_REPLICATION (integer in [1, 4]) overrides `replication`,
/// ADVH_FLEET_LOSS_RATE (number in [0, 0.95]) overrides `loss_rate`,
/// ADVH_FLEET_SCRUB_PERIOD (integer in [1, 1000000]) overrides
/// `scrub_period`, ADVH_FLEET_CORRUPT_RATE (number in [0, 0.5])
/// overrides `corrupt_rate`. A
/// set-but-malformed knob throws std::invalid_argument — the strict
/// validation contract every ADVH_* knob follows: a typo in a deployment
/// manifest must fail loudly, not silently mis-size the fleet.
fleet_config fleet_config_from_env(fleet_config base = fleet_config{});

/// Rejects inconsistent fleet geometry and, above all, any configuration
/// violating the split-brain safety condition lease + max_delay <
/// failure_timeout. Throws std::invalid_argument.
void validate(const fleet_config& cfg);

}  // namespace advh::fleet
