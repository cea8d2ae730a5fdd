// Strict SI_* environment-variable parsing, shared by every subsystem
// that reads a configuration knob from the environment; parse_long is
// also the number parser of the CLIs' numeric flags.
//
// Policy (see README "Environment variables"): an unset or empty
// variable means "use the default"; anything else must parse EXACTLY or
// the lookup throws std::invalid_argument naming the variable, the
// offending value, and the accepted forms.  SI_RUNTIME_THREADS=8x
// silently parsing as 8 (strtol stopping at the junk) or =abc silently
// falling back to the hardware default is precisely the class of
// misconfiguration that benchmarks the wrong setup for a week before
// anyone notices — reject it up front.
//
// Header-only on purpose: si_obs sits below si_runtime in the link
// order but shares the same include root, so the telemetry layer can
// use the same parsers without a dependency cycle.
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>

namespace si::runtime {

namespace env_detail {

[[noreturn]] inline void fail(const char* name, const char* raw,
                              const std::string& why) {
  throw std::invalid_argument(std::string(name) + ": invalid value \"" + raw +
                              "\" (" + why + ")");
}

}  // namespace env_detail

/// Parses `raw` as a whole base-10 number within [min, max].  Throws
/// std::invalid_argument naming `name` (a variable or a CLI flag) on
/// anything else: empty, trailing junk ("8x"), non-numeric ("abc"),
/// overflow, or an out-of-range value.  The strict core shared by
/// parse_env_long and the CLIs' numeric flags.
inline long parse_long(const char* name, const char* raw, long min = LONG_MIN,
                       long max = LONG_MAX) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw) env_detail::fail(name, raw, "not a number");
  while (*end != '\0' && std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (*end != '\0')
    env_detail::fail(name, raw, "trailing characters after the number");
  if (errno == ERANGE) env_detail::fail(name, raw, "out of range");
  if (v < min || v > max)
    env_detail::fail(name, raw,
                     "must be in [" + std::to_string(min) + ", " +
                         std::to_string(max) + "]");
  return v;
}

/// Parses an integer environment variable.  Returns std::nullopt when
/// the variable is unset or empty (caller applies its default);
/// anything else goes through parse_long and throws unless it is a
/// whole base-10 number within [min, max].
inline std::optional<long> parse_env_long(const char* name, long min = LONG_MIN,
                                          long max = LONG_MAX) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return std::nullopt;
  return parse_long(name, raw, min, max);
}

/// Parses a boolean environment variable.  Accepts "1"/"on"/"true" and
/// "0"/"off"/"false" (lowercase, matching the documented forms); unset
/// or empty returns std::nullopt.  Anything else throws.
inline std::optional<bool> parse_env_flag(const char* name) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return std::nullopt;
  const std::string s(raw);
  if (s == "1" || s == "on" || s == "true") return true;
  if (s == "0" || s == "off" || s == "false") return false;
  env_detail::fail(name, raw, "valid values: 0, 1, on, off, true, false");
}

/// Parses an enumerated environment variable against an explicit choice
/// list.  Unset or empty returns std::nullopt; a listed choice is
/// returned verbatim; anything else throws naming every valid choice (a
/// typo like SI_TRANSIENT=evnt must not silently select the default).
inline std::optional<std::string> parse_env_choice(
    const char* name, std::initializer_list<const char*> choices) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return std::nullopt;
  const std::string s(raw);
  std::string valid;
  for (const char* c : choices) {
    if (s == c) return s;
    if (!valid.empty()) valid += ", ";
    valid += c;
  }
  env_detail::fail(name, raw, "valid values: " + valid);
}

}  // namespace si::runtime
