// Minimal command-line argument parsing for the wlansim CLI tool:
// `--key value` and `--flag` pairs after a subcommand, with typed lookup
// and unknown-key detection — plus the shared flag -> option translations
// (adaptive stopping rule, surrogate store) every measuring subcommand and
// bench driver uses, so the flag names and defaults stay in one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/sweep.h"

namespace wlansim::sim {
enum class SurrogateAxis : std::uint8_t;
}

namespace wlansim::core {

struct SurrogateOptions;  // core/surrogate.h

class CliArgs {
 public:
  /// Parse argv past the subcommand. Keys must start with "--"; a key
  /// followed by another key (or end of argv) is a boolean flag.
  /// Throws std::invalid_argument on malformed input.
  static CliArgs parse(int argc, const char* const* argv, int start);

  bool has(const std::string& key) const;

  /// Typed getters; throw std::invalid_argument on unparsable values.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  long get_long(const std::string& key, long fallback) const;
  /// A count: an integer >= `min`. Negative values (and values below
  /// `min`) throw std::invalid_argument naming the option, instead of
  /// wrapping to a huge unsigned count.
  std::size_t get_count(const std::string& key, std::size_t fallback,
                        std::size_t min) const;
  bool get_bool(const std::string& key) const { return has(key); }

  /// Keys that were provided but never read — surfaced as usage errors so
  /// typos don't silently do nothing.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> used_;
};

/// Adaptive early-stopping rule from --target-ci / --min-errors /
/// --max-packets / --min-packets: present when any of the four is given
/// (defaults 0.10 / 100 / 10000 / 8), nullopt = fixed packet budget.
/// Throws std::invalid_argument on a negative or non-finite --target-ci,
/// a negative count, or --max-packets 0.
std::optional<sim::StoppingRule> stopping_rule_from_args(const CliArgs& args);

/// Surrogate / dedup evaluation options from --calib-dir plus the adaptive
/// flags (the stopping rule doubles as the calibration / fallback-MC rule).
SurrogateOptions surrogate_options_from_args(
    const CliArgs& args, sim::SurrogateAxis axis,
    const std::optional<sim::StoppingRule>& rule, std::size_t threads);

}  // namespace wlansim::core
