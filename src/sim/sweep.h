// Parameter sweep manager — the counterpart of the SPW "simulation
// manager" the paper uses to measure BER versus RF front-end parameters
// (§4.1: "The simulation manager allows to setup parameter sweeps").
//
// Also home of the sequential early-stopping rule the adaptive Monte-Carlo
// BER engine (core/parallel) evaluates: the statistics are generic Bernoulli
// confidence-interval math and live here so they can be unit-tested without
// the link layer.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace wlansim::sim {

/// One sweep point: the parameter value and named scalar results.
struct SweepRow {
  double value = 0.0;
  std::map<std::string, double> results;
};

struct SweepResult {
  std::string param_name;
  std::vector<SweepRow> rows;

  /// Column of one result across the sweep.
  std::vector<double> column(const std::string& key) const;

  /// Render as an aligned ASCII table.
  std::string to_table() const;

  /// Render as CSV (header + rows).
  std::string to_csv() const;
};

/// Evaluate `fn` at every value (in order); `fn` returns named scalars.
SweepResult run_sweep(
    const std::string& param_name, const std::vector<double>& values,
    const std::function<std::map<std::string, double>(double)>& fn);

// ---------------------------------------------------------------------------
// Sequential early stopping
// ---------------------------------------------------------------------------

/// Stopping rule for a sequential Monte-Carlo error-rate measurement: keep
/// drawing packets until the bit-error-rate estimate is tight enough, with
/// an error-count floor guarding the small-sample regime and a hard packet
/// cap bounding the rare-error tail.
///
/// The rule is met at a prefix of `packets` in-order packet results holding
/// `bit_errors` errors out of `bits` transmitted bits when ALL of:
///   - packets    >= min_packets
///   - bit_errors >= min_errors  (CI math is meaningless on a handful of
///                                errors; 100 is the classic Monte-Carlo
///                                floor, also absorbing the burstiness of
///                                post-Viterbi bit errors)
///   - the Wilson-score relative half-width of the BER estimate at
///     confidence_z is <= target_rel_ci (> 0; 0 disables the CI test,
///     leaving a pure fixed budget of max_packets)
/// Independently of the rule, the measurement stops at max_packets.
struct StoppingRule {
  double target_rel_ci = 0.10;     ///< CI half-width / BER estimate; 0 = off
  double confidence_z = 1.96;      ///< normal quantile (1.96 = 95 %)
  std::size_t min_errors = 100;    ///< bit-error floor before a CI stop
  std::size_t min_packets = 8;     ///< packet floor before a CI stop
  std::size_t max_packets = 10000; ///< hard cap (the fixed budget when the
                                   ///< CI test is disabled or unreachable)
};

/// A fixed budget of exactly `packets` per point: the rule with the CI
/// test off.
inline StoppingRule fixed_budget(std::size_t packets) {
  StoppingRule rule;
  rule.target_rel_ci = 0.0;
  rule.max_packets = packets;
  return rule;
}

/// Half-width of the Wilson score interval for `errors` successes in
/// `trials` Bernoulli draws at normal quantile `z`. Well-behaved down to
/// zero errors (unlike the Wald interval); +inf when trials == 0.
double wilson_halfwidth(std::size_t errors, std::size_t trials, double z);

/// wilson_halfwidth relative to the maximum-likelihood estimate
/// errors/trials; +inf when errors == 0 (no estimate to be relative to).
double wilson_rel_halfwidth(std::size_t errors, std::size_t trials, double z);

/// Evaluate `rule` on the in-order prefix statistics (see StoppingRule).
bool stopping_rule_met(const StoppingRule& rule, std::size_t packets,
                       std::size_t bit_errors, std::size_t bits);

/// Linearly spaced values [lo, hi] inclusive.
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Logarithmically spaced values [lo, hi] inclusive (lo, hi > 0).
std::vector<double> logspace(double lo, double hi, std::size_t n);

}  // namespace wlansim::sim
