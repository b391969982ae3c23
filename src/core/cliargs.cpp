#include "core/cliargs.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/surrogate.h"

namespace wlansim::core {

CliArgs CliArgs::parse(int argc, const char* const* argv, int start) {
  CliArgs out;
  int i = start;
  while (i < argc) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || key.size() < 3)
      throw std::invalid_argument("expected --key, got '" + key + "'");
    const std::string name = key.substr(2);
    if (out.kv_.count(name))
      throw std::invalid_argument("duplicate option --" + name);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      out.kv_[name] = argv[i + 1];
      i += 2;
    } else {
      out.kv_[name] = "";  // boolean flag
      ++i;
    }
  }
  return out;
}

bool CliArgs::has(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return false;
  used_.insert(key);
  return true;
}

std::string CliArgs::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  used_.insert(key);
  return it->second;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  used_.insert(key);
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                it->second + "'");
  }
}

long CliArgs::get_long(const std::string& key, long fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  used_.insert(key);
  try {
    std::size_t pos = 0;
    const long v = std::stol(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key +
                                " expects an integer, got '" + it->second +
                                "'");
  }
}

std::size_t CliArgs::get_count(const std::string& key, std::size_t fallback,
                               std::size_t min) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const long v = get_long(key, 0);
  if (v < 0 || static_cast<std::size_t>(v) < min)
    throw std::invalid_argument("option --" + key + " expects a count >= " +
                                std::to_string(min) + ", got '" + it->second +
                                "'");
  return static_cast<std::size_t>(v);
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (!used_.count(k)) out.push_back(k);
  }
  return out;
}

std::optional<sim::StoppingRule> stopping_rule_from_args(const CliArgs& args) {
  if (!args.has("target-ci") && !args.has("min-errors") &&
      !args.has("max-packets") && !args.has("min-packets")) {
    return std::nullopt;
  }
  sim::StoppingRule rule;
  rule.target_rel_ci = args.get_double("target-ci", rule.target_rel_ci);
  if (!std::isfinite(rule.target_rel_ci) || rule.target_rel_ci < 0.0)
    throw std::invalid_argument(
        "option --target-ci expects a finite number >= 0 (0 = fixed budget), "
        "got '" + args.get_string("target-ci", "") + "'");
  rule.min_errors = args.get_count("min-errors", rule.min_errors, 0);
  rule.min_packets = args.get_count("min-packets", rule.min_packets, 0);
  rule.max_packets = args.get_count("max-packets", rule.max_packets, 1);
  // The wire decoder (service::rule_from_json) refuses the same rule, so
  // the local CLI and wlansim_client accept exactly the same flags.
  if (rule.max_packets < rule.min_packets)
    throw std::invalid_argument(
        "option --max-packets expects a count >= --min-packets (" +
        std::to_string(rule.min_packets) + "), got " +
        std::to_string(rule.max_packets));
  return rule;
}

SurrogateOptions surrogate_options_from_args(
    const CliArgs& args, sim::SurrogateAxis axis,
    const std::optional<sim::StoppingRule>& rule, std::size_t threads) {
  SurrogateOptions opts;
  opts.axis = axis;
  if (rule.has_value()) opts.rule = *rule;
  const std::string dir = args.get_string("calib-dir", "");
  if (!dir.empty()) opts.store_dir = dir;
  opts.threads = threads;
  return opts;
}

}  // namespace wlansim::core
