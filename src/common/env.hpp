// Strict parsing of the ADVH_* environment knobs.
//
// Every knob follows one contract: unset means "use the default", and a
// set value must parse completely and land in the knob's range. A
// set-but-malformed knob throws std::invalid_argument with the message
//   NAME="value": expected a number in [lo, hi]
// (or "an integer", or "(lo, hi]" for an open lower end) instead of
// silently falling back — a typo in a deployment manifest must fail
// loudly, not quietly change the workload.
#pragma once

#include <cstdint>
#include <optional>

namespace advh::env {

/// Whether a number knob's lower end belongs to its range. Upper ends are
/// always closed.
enum class lower_end { closed, open };

/// The value of `name` as a finite number in [lo, hi] (or (lo, hi] for an
/// open lower end); nullopt when the variable is unset.
std::optional<double> number(const char* name, double lo, double hi,
                             lower_end low = lower_end::closed);

/// The value of `name` as a base-10 integer in [lo, hi]; nullopt when the
/// variable is unset. Decimal points, exponents and hex are rejected.
std::optional<std::uint64_t> integer(const char* name, std::uint64_t lo,
                                     std::uint64_t hi);

}  // namespace advh::env
