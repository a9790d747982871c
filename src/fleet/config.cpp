#include "fleet/config.hpp"

#include <stdexcept>
#include <string>

#include "common/env.hpp"

namespace advh::fleet {

fleet_config fleet_config_from_env(fleet_config base) {
  if (const auto n = env::integer("ADVH_FLEET_REPLICAS", 1, 64)) {
    base.replicas = static_cast<std::size_t>(*n);
  }
  if (const auto n = env::integer("ADVH_FLEET_CONTROLLERS", 1, 7)) {
    base.controllers = static_cast<std::size_t>(*n);
  }
  if (const auto n = env::integer("ADVH_FLEET_REPLICATION", 1, 4)) {
    base.replication = static_cast<std::uint32_t>(*n);
  }
  if (const auto r = env::number("ADVH_FLEET_LOSS_RATE", 0.0, 0.95)) {
    base.loss_rate = *r;
  }
  if (const auto n = env::integer("ADVH_FLEET_SCRUB_PERIOD", 1, 1000000)) {
    base.scrub_period = *n;
  }
  if (const auto r = env::number("ADVH_FLEET_CORRUPT_RATE", 0.0, 0.5)) {
    base.corrupt_rate = *r;
  }
  return base;
}

void validate(const fleet_config& cfg) {
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("fleet config: " + msg);
  };
  if (cfg.replicas < 1 || cfg.replicas > 64) {
    fail("replicas must lie in [1, 64]");
  }
  if (cfg.controllers < 1 || cfg.controllers > 7) {
    fail("controllers must lie in [1, 7]");
  }
  if (cfg.replication < 1 || cfg.replication > 4) {
    fail("replication must lie in [1, 4]");
  }
  if (cfg.class_shards < 1) fail("class_shards must be positive");
  if (cfg.ring_ranges < 1) fail("ring_ranges must be positive");
  if (cfg.tick.count() <= 0) fail("tick must be positive");
  if (cfg.hb_interval < 1) fail("hb_interval must be positive");
  if (cfg.retransmit < 1) fail("retransmit must be positive");
  if (cfg.min_delay > cfg.max_delay) fail("min_delay must be <= max_delay");
  if (!(cfg.loss_rate >= 0.0) || cfg.loss_rate > 0.95) {
    fail("loss_rate must lie in [0, 0.95]");
  }
  if (cfg.handoff_batch < 1) fail("handoff_batch must be positive");
  if (cfg.scrub_period < 1) fail("scrub_period must be positive");
  if (!(cfg.corrupt_rate >= 0.0) || cfg.corrupt_rate > 0.5) {
    fail("corrupt_rate must lie in [0, 0.5]");
  }
  if (cfg.canary_interval < 1) fail("canary_interval must be positive");
  if (cfg.checkpoint_interval < 1) {
    fail("checkpoint_interval must be positive");
  }
  if (cfg.request_timeout <= cfg.max_delay) {
    fail("request_timeout must exceed max_delay (a request needs time to "
         "arrive before the router abstains)");
  }
  if (cfg.speculate_after < 1 || cfg.speculate_after >= cfg.request_timeout) {
    fail("speculate_after must lie in [1, request_timeout): the secondary "
         "needs time to respond before the router abstains");
  }
  // The split-brain safety condition. See the header comment: a stale
  // owner must be self-fenced strictly before the controller can have
  // reassigned its ranges.
  if (cfg.lease + cfg.max_delay >= cfg.failure_timeout) {
    fail("split-brain hazard: lease + max_delay must be < failure_timeout "
         "(a stale replica must fence itself before its shards can be "
         "reassigned)");
  }
  // The controller-side mirror of the same condition: a deposed leader's
  // lease (plus any beacon still in flight) must have run out before a
  // successor could have been elected and started publishing views.
  if (cfg.ctl_lease + cfg.max_delay >= cfg.ctl_failure_timeout) {
    fail("split-brain hazard: ctl_lease + max_delay must be < "
         "ctl_failure_timeout (a deposed leader must lose its lease "
         "before a successor can start acting)");
  }
}

}  // namespace advh::fleet
