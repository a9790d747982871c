#include "common/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace advh::env {

namespace {

[[noreturn]] void reject(const char* name, const char* value,
                         const std::string& expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + value +
                              "\": expected " + expected);
}

/// Compact rendering of a range end: "1", "0.95", "1e+06".
std::string show(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::optional<double> number(const char* name, double lo, double hi,
                             lower_end low) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  const bool above_lo = low == lower_end::open ? v > lo : v >= lo;
  if (end == value || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      !above_lo || v > hi) {
    reject(name, value,
           "a number in " + std::string(low == lower_end::open ? "(" : "[") +
               show(lo) + ", " + show(hi) + "]");
  }
  return v;
}

std::optional<std::uint64_t> integer(const char* name, std::uint64_t lo,
                                     std::uint64_t hi) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < 0 ||
      static_cast<std::uint64_t>(v) < lo ||
      static_cast<std::uint64_t>(v) > hi) {
    reject(name, value,
           "an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace advh::env
