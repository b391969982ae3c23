// Shared pieces of the wlbench load generator: the run context, the raw
// report it hands to perfbench/run.py, and the four user journeys.
//
// wlbench only measures and checks; run.py turns the raw samples into
// the named metrics (medians, tail percentiles, failure fractions).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace wlbench {

/// splitmix64 finalizer: every generated input derives from the run seed
/// through this, so one seed gives one set of inputs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);
/// Uniform double in [0, 1) from (seed, stream).
double unit_draw(std::uint64_t seed, std::uint64_t stream);

/// Raw measurements of one run.
class Report {
 public:
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  void count(const std::string& name, double v) { counters_[name] += v; }
  void info(const std::string& name, std::string v) {
    info_[name] = std::move(v);
  }
  /// A table row (e.g. one waterfall point) for checks made in run.py.
  void row(const std::string& table,
           std::vector<std::pair<std::string, double>> fields) {
    rows_[table].push_back(std::move(fields));
  }
  /// Account one checked operation; a failed one keeps its message.
  void check(bool ok, const std::string& what);

  /// Write everything as one JSON object; false on I/O failure.
  bool write(const std::filesystem::path& path) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::string> info_;
  std::map<std::string, std::vector<std::vector<std::pair<std::string, double>>>>
      rows_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Context {
  std::uint64_t seed = 1;
  std::size_t nproc = 1;
};

/// One user journey through the system. setup() is what a user pays before
/// the first answer (timed into setup_s). step() runs one unit of the
/// journey's measured operation and checks its outputs; main.cpp
/// interleaves the steps of all journeys until each has used its share of
/// the run and has enough() samples, then calls finish(). layers() runs
/// the traced-only replays.
class Journey {
 public:
  virtual ~Journey() = default;
  virtual const char* name() const = 0;
  virtual void setup(const std::filesystem::path& dir) = 0;
  virtual void step(Report& rep) = 0;
  virtual bool enough() const = 0;
  virtual void finish(Report& rep) { (void)rep; }
  /// One fixed unit of the measured operation (for trace.overhead);
  /// returns its wall seconds.
  virtual double unit() = 0;
  virtual void layers(Report& rep) { (void)rep; }
};

std::unique_ptr<Journey> make_waterfall(const Context& ctx);
std::unique_ptr<Journey> make_drop(const Context& ctx);
std::unique_ptr<Journey> make_service(const Context& ctx);
std::unique_ptr<Journey> make_cosim(const Context& ctx);

/// Per-layer replays of one packet through dsp/channel/rf/phy80211a/core
/// (traced runs only).
void packet_layer_replays(const Context& ctx, Report& rep);

/// Reference-curve generation for the waterfall check (perfbench/
/// reference_waterfall.json): `seeds` independent waterfalls, one row each
/// point.
void make_waterfall_reference(std::size_t seeds, Report& rep);

}  // namespace wlbench
