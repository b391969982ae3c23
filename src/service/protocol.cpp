#include "service/protocol.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/experiments.h"
#include "phy80211a/params.h"

namespace wlansim::service {

namespace {

/// Finite doubles travel as numbers; the CI sentinel values as strings
/// (JSON has no inf/nan tokens).
Json number_or_special(double v) {
  if (std::isfinite(v)) return Json::number(v);
  if (std::isnan(v)) return Json::string("nan");
  return Json::string(v > 0 ? "inf" : "-inf");
}

double double_or_special(const Json& j, const char* what) {
  if (j.is_number()) return j.as_double();
  if (j.is_string()) {
    const std::string& s = j.as_string();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  throw std::runtime_error(std::string("protocol: bad numeric field ") + what);
}

const Json& require(const Json& j, const char* key) {
  const Json* v = j.find(key);
  if (!v)
    throw std::runtime_error(std::string("protocol: missing field \"") + key +
                             "\"");
  return *v;
}

double get_double(const Json& j, const char* key, double fallback) {
  const Json* v = j.find(key);
  return v ? v->as_double() : fallback;
}

std::uint64_t get_u64(const Json& j, const char* key, std::uint64_t fallback) {
  const Json* v = j.find(key);
  return v ? v->as_u64() : fallback;
}

bool get_bool(const Json& j, const char* key, bool fallback) {
  const Json* v = j.find(key);
  return v ? v->as_bool() : fallback;
}

/// Decode-time range check: reject on the wire what WlanLink or run_drop
/// would only reject later, or never.
void check_field(bool ok, const char* key, const char* want) {
  if (!ok)
    throw std::runtime_error(std::string("protocol: \"") + key +
                             "\" must be " + want);
}

bool finite_nonnegative(double v) { return std::isfinite(v) && v >= 0.0; }

long rate_to_mbps(phy::Rate r) {
  return static_cast<long>(phy::rate_params(r).rate_mbps);
}

phy::Rate rate_from_mbps_value(std::uint64_t mbps) {
  switch (mbps) {
    case 6: return phy::Rate::kMbps6;
    case 9: return phy::Rate::kMbps9;
    case 12: return phy::Rate::kMbps12;
    case 18: return phy::Rate::kMbps18;
    case 24: return phy::Rate::kMbps24;
    case 36: return phy::Rate::kMbps36;
    case 48: return phy::Rate::kMbps48;
    case 54: return phy::Rate::kMbps54;
    default:
      throw std::runtime_error("protocol: rate_mbps must be one of "
                               "6 9 12 18 24 36 48 54");
  }
}

}  // namespace

Json link_to_json(const core::LinkConfig& cfg) {
  Json j = Json::object();
  j.set("rate_mbps", Json::number_u64(static_cast<std::uint64_t>(
                         rate_to_mbps(cfg.rate))));
  j.set("psdu_bytes", Json::number_u64(cfg.psdu_bytes));
  j.set("rx_power_dbm", Json::number(cfg.rx_power_dbm));
  if (cfg.snr_db.has_value()) j.set("snr_db", Json::number(*cfg.snr_db));
  const char* rf = "system";
  switch (cfg.rf_engine) {
    case core::RfEngine::kNone: rf = "none"; break;
    case core::RfEngine::kSystemLevel: rf = "system"; break;
    case core::RfEngine::kCosim: rf = "cosim"; break;
    case core::RfEngine::kCustom:
      throw std::invalid_argument(
          "link_to_json: a custom RF block cannot be serialized");
  }
  j.set("rf_engine", Json::string(rf));
  j.set("lna_p1db_in_dbm", Json::number(cfg.rf.lna_p1db_in_dbm));
  j.set("bb_bandwidth_factor", Json::number(cfg.rf.bb_bandwidth_factor));
  j.set("sco_ppm", Json::number(cfg.sco_ppm));
  if (cfg.interferer.has_value()) {
    Json adj = Json::object();
    adj.set("offset_hz", Json::number(cfg.interferer->offset_hz));
    adj.set("level_db", Json::number(cfg.interferer->level_db));
    j.set("adjacent", std::move(adj));
  }
  j.set("seed", Json::number_u64(cfg.seed));
  return j;
}

core::LinkConfig link_from_json(const Json& j) {
  if (!j.is_object())
    throw std::runtime_error("protocol: \"link\" must be an object");
  core::LinkConfig cfg = core::default_link_config();
  cfg.rate = rate_from_mbps_value(get_u64(j, "rate_mbps", 24));
  cfg.psdu_bytes =
      static_cast<std::size_t>(get_u64(j, "psdu_bytes", cfg.psdu_bytes));
  check_field(cfg.psdu_bytes >= 1 && cfg.psdu_bytes <= 4095, "psdu_bytes",
              "1..4095");
  cfg.rx_power_dbm = get_double(j, "rx_power_dbm", cfg.rx_power_dbm);
  if (const Json* snr = j.find("snr_db")) {
    cfg.snr_db = snr->as_double();
  } else {
    cfg.snr_db.reset();
  }
  const Json* rf = j.find("rf_engine");
  const std::string engine = rf ? rf->as_string() : "system";
  if (engine == "none") {
    cfg.rf_engine = core::RfEngine::kNone;
  } else if (engine == "system") {
    cfg.rf_engine = core::RfEngine::kSystemLevel;
  } else if (engine == "cosim") {
    cfg.rf_engine = core::RfEngine::kCosim;
  } else {
    throw std::runtime_error("protocol: rf_engine must be none|system|cosim");
  }
  cfg.rf.lna_p1db_in_dbm =
      get_double(j, "lna_p1db_in_dbm", cfg.rf.lna_p1db_in_dbm);
  cfg.rf.bb_bandwidth_factor =
      get_double(j, "bb_bandwidth_factor", cfg.rf.bb_bandwidth_factor);
  check_field(std::isfinite(cfg.rf.bb_bandwidth_factor) &&
                  cfg.rf.bb_bandwidth_factor > 0.0,
              "bb_bandwidth_factor", "a finite number > 0");
  cfg.sco_ppm = get_double(j, "sco_ppm", cfg.sco_ppm);
  if (const Json* adj = j.find("adjacent")) {
    channel::InterfererConfig ic;
    ic.offset_hz = get_double(*adj, "offset_hz", ic.offset_hz);
    ic.level_db = get_double(*adj, "level_db", ic.level_db);
    cfg.interferer = ic;
  }
  cfg.seed = get_u64(j, "seed", cfg.seed);
  return cfg;
}

Json rule_to_json(const sim::StoppingRule& rule) {
  Json j = Json::object();
  j.set("target_rel_ci", Json::number(rule.target_rel_ci));
  j.set("confidence_z", Json::number(rule.confidence_z));
  j.set("min_errors", Json::number_u64(rule.min_errors));
  j.set("min_packets", Json::number_u64(rule.min_packets));
  j.set("max_packets", Json::number_u64(rule.max_packets));
  return j;
}

sim::StoppingRule rule_from_json(const Json& j) {
  if (!j.is_object())
    throw std::runtime_error("protocol: \"rule\" must be an object");
  sim::StoppingRule rule;
  rule.target_rel_ci = get_double(j, "target_rel_ci", rule.target_rel_ci);
  rule.confidence_z = get_double(j, "confidence_z", rule.confidence_z);
  rule.min_errors =
      static_cast<std::size_t>(get_u64(j, "min_errors", rule.min_errors));
  rule.min_packets =
      static_cast<std::size_t>(get_u64(j, "min_packets", rule.min_packets));
  rule.max_packets =
      static_cast<std::size_t>(get_u64(j, "max_packets", rule.max_packets));
  check_field(finite_nonnegative(rule.target_rel_ci), "target_rel_ci",
              "a finite number >= 0");
  check_field(finite_nonnegative(rule.confidence_z), "confidence_z",
              "a finite number >= 0");
  check_field(rule.max_packets >= 1 && rule.max_packets >= rule.min_packets,
              "max_packets", ">= 1 and >= min_packets");
  return rule;
}

Json result_to_json(const core::BerResult& r) {
  Json j = Json::object();
  j.set("packets", Json::number_u64(r.packets));
  j.set("packets_lost", Json::number_u64(r.packets_lost));
  j.set("packet_errors", Json::number_u64(r.packet_errors));
  j.set("bits", Json::number_u64(r.bits));
  j.set("bit_errors", Json::number_u64(r.bit_errors));
  j.set("evm_rms_avg", Json::number(r.evm_rms_avg));
  j.set("ber_ci_rel", number_or_special(r.ber_ci_rel));
  j.set("wall_seconds", Json::number(r.wall_seconds));
  j.set("converged", Json::boolean(r.converged));
  j.set("model_ber", Json::number(r.model_ber));
  j.set("model_per", Json::number(r.model_per));
  j.set("from_surrogate", Json::boolean(r.from_surrogate));
  return j;
}

core::BerResult result_from_json(const Json& j) {
  if (!j.is_object())
    throw std::runtime_error("protocol: result must be an object");
  core::BerResult r;
  r.packets = static_cast<std::size_t>(require(j, "packets").as_u64());
  r.packets_lost =
      static_cast<std::size_t>(require(j, "packets_lost").as_u64());
  r.packet_errors =
      static_cast<std::size_t>(require(j, "packet_errors").as_u64());
  r.bits = static_cast<std::size_t>(require(j, "bits").as_u64());
  r.bit_errors = static_cast<std::size_t>(require(j, "bit_errors").as_u64());
  r.evm_rms_avg = require(j, "evm_rms_avg").as_double();
  r.ber_ci_rel = double_or_special(require(j, "ber_ci_rel"), "ber_ci_rel");
  r.wall_seconds = require(j, "wall_seconds").as_double();
  r.converged = require(j, "converged").as_bool();
  r.model_ber = require(j, "model_ber").as_double();
  r.model_per = require(j, "model_per").as_double();
  r.from_surrogate = require(j, "from_surrogate").as_bool();
  return r;
}

std::vector<double> sweep_values(double from, double to, double step) {
  if (step <= 0.0 || to < from)
    throw std::invalid_argument("sweep needs from <= to and step > 0");
  // The exact `wlansim sweep` loop, including its epsilon — identical
  // doubles in every consumer.
  std::vector<double> values;
  for (double v = from; v <= to + 1e-9; v += step) values.push_back(v);
  return values;
}

sim::SurrogateAxis axis_from_param(const std::string& param) {
  if (param == "snr") return sim::SurrogateAxis::kSnrDb;
  if (param == "power") return sim::SurrogateAxis::kRxPowerDbm;
  throw std::invalid_argument(
      "service sweeps support param snr|power only (other parameters change "
      "the front-end, i.e. the calibration key)");
}

std::vector<core::LinkConfig> SweepRequest::expand() const {
  const sim::SurrogateAxis axis = axis_from_param(param);
  std::vector<core::LinkConfig> configs;
  const std::vector<double> vals = values();
  configs.reserve(vals.size());
  for (const double v : vals) {
    core::LinkConfig cfg = base;
    if (axis == sim::SurrogateAxis::kSnrDb) {
      cfg.snr_db = v;
    } else {
      cfg.rx_power_dbm = v;
    }
    configs.push_back(cfg);
  }
  return configs;
}

Json SweepRequest::to_json() const {
  Json j = Json::object();
  j.set("op", Json::string("sweep"));
  j.set("param", Json::string(param));
  j.set("from", Json::number(from));
  j.set("to", Json::number(to));
  j.set("step", Json::number(step));
  j.set("link", link_to_json(base));
  j.set("rule", rule_to_json(rule));
  j.set("bin_width_db", Json::number(bin_width_db));
  j.set("use_store", Json::boolean(use_store));
  return j;
}

SweepRequest SweepRequest::from_json(const Json& j) {
  SweepRequest req;
  req.param = require(j, "param").as_string();
  axis_from_param(req.param);  // validate early
  req.from = require(j, "from").as_double();
  req.to = require(j, "to").as_double();
  req.step = require(j, "step").as_double();
  req.base = link_from_json(require(j, "link"));
  req.rule = rule_from_json(require(j, "rule"));
  req.bin_width_db = get_double(j, "bin_width_db", 0.0);
  req.use_store = get_bool(j, "use_store", true);
  sweep_values(req.from, req.to, req.step);  // validate the span
  return req;
}

Json EvalRequest::to_json() const {
  Json j = Json::object();
  j.set("op", Json::string("eval"));
  j.set("param", Json::string(param));
  Json arr = Json::array();
  for (const core::LinkConfig& cfg : links) arr.push_back(link_to_json(cfg));
  j.set("links", std::move(arr));
  j.set("rule", rule_to_json(rule));
  j.set("bin_width_db", Json::number(bin_width_db));
  j.set("use_store", Json::boolean(use_store));
  return j;
}

EvalRequest EvalRequest::from_json(const Json& j) {
  EvalRequest req;
  req.param = require(j, "param").as_string();
  axis_from_param(req.param);
  const Json& links = require(j, "links");
  if (!links.is_array() || links.as_array().empty())
    throw std::runtime_error("protocol: \"links\" must be a non-empty array");
  req.links.reserve(links.as_array().size());
  for (const Json& l : links.as_array()) req.links.push_back(link_from_json(l));
  req.rule = rule_from_json(require(j, "rule"));
  req.bin_width_db = get_double(j, "bin_width_db", 0.5);
  req.use_store = get_bool(j, "use_store", true);
  return req;
}

Json DropRequest::to_json() const {
  Json j = Json::object();
  j.set("op", Json::string("drop"));
  j.set("num_stations", Json::number_u64(cfg.num_stations));
  j.set("num_steps", Json::number_u64(cfg.num_steps));
  j.set("area_half_m", Json::number(cfg.area_half_m));
  Json ap = Json::object();
  ap.set("x", Json::number(cfg.ap.x));
  ap.set("y", Json::number(cfg.ap.y));
  j.set("ap", std::move(ap));
  j.set("tx_power_dbm", Json::number(cfg.tx_power_dbm));
  j.set("noise_figure_db", Json::number(cfg.noise_figure_db));
  j.set("bandwidth_hz", Json::number(cfg.bandwidth_hz));
  Json pl = Json::object();
  pl.set("ref_loss_db", Json::number(cfg.path_loss.ref_loss_db));
  pl.set("ref_distance_m", Json::number(cfg.path_loss.ref_distance_m));
  pl.set("exponent", Json::number(cfg.path_loss.exponent));
  pl.set("shadowing_sigma_db",
         Json::number(cfg.path_loss.shadowing_sigma_db));
  pl.set("min_distance_m", Json::number(cfg.path_loss.min_distance_m));
  j.set("path_loss", std::move(pl));
  j.set("walk_step_m", Json::number(cfg.mobility.step_m));
  Json bsses = Json::array();
  for (const scenario::InterfererBss& bss : cfg.interferers) {
    Json b = Json::object();
    b.set("x", Json::number(bss.position.x));
    b.set("y", Json::number(bss.position.y));
    b.set("tx_power_dbm", Json::number(bss.tx_power_dbm));
    b.set("offset_hz", Json::number(bss.offset_hz));
    bsses.push_back(std::move(b));
  }
  j.set("interferers", std::move(bsses));
  j.set("seed", Json::number_u64(cfg.seed));
  j.set("link", link_to_json(cfg.link));
  j.set("snr_bin_db", Json::number(cfg.snr_bin_db));
  j.set("snr_min_db", Json::number(cfg.snr_min_db));
  j.set("snr_max_db", Json::number(cfg.snr_max_db));
  j.set("adj_bin_db", Json::number(cfg.adj_bin_db));
  j.set("adj_floor_db", Json::number(cfg.adj_floor_db));
  j.set("rule", rule_to_json(cfg.rule));
  j.set("use_store", Json::boolean(cfg.use_store));
  return j;
}

DropRequest DropRequest::from_json(const Json& j) {
  DropRequest req;
  scenario::DropConfig& cfg = req.cfg;
  cfg.num_stations =
      static_cast<std::size_t>(get_u64(j, "num_stations", cfg.num_stations));
  cfg.num_steps =
      static_cast<std::size_t>(get_u64(j, "num_steps", cfg.num_steps));
  check_field(cfg.num_steps == 0 ||
                  cfg.num_stations <=
                      std::numeric_limits<std::size_t>::max() / cfg.num_steps,
              "num_stations", "small enough that num_stations x num_steps "
              "fits a size_t");
  cfg.area_half_m = get_double(j, "area_half_m", cfg.area_half_m);
  check_field(finite_nonnegative(cfg.area_half_m), "area_half_m",
              "a finite number >= 0");
  if (const Json* ap = j.find("ap")) {
    cfg.ap.x = get_double(*ap, "x", 0.0);
    cfg.ap.y = get_double(*ap, "y", 0.0);
  }
  cfg.tx_power_dbm = get_double(j, "tx_power_dbm", cfg.tx_power_dbm);
  cfg.noise_figure_db = get_double(j, "noise_figure_db", cfg.noise_figure_db);
  cfg.bandwidth_hz = get_double(j, "bandwidth_hz", cfg.bandwidth_hz);
  if (const Json* pl = j.find("path_loss")) {
    cfg.path_loss.ref_loss_db =
        get_double(*pl, "ref_loss_db", cfg.path_loss.ref_loss_db);
    cfg.path_loss.ref_distance_m =
        get_double(*pl, "ref_distance_m", cfg.path_loss.ref_distance_m);
    cfg.path_loss.exponent = get_double(*pl, "exponent", cfg.path_loss.exponent);
    cfg.path_loss.shadowing_sigma_db =
        get_double(*pl, "shadowing_sigma_db", cfg.path_loss.shadowing_sigma_db);
    check_field(finite_nonnegative(cfg.path_loss.shadowing_sigma_db),
                "shadowing_sigma_db", "a finite number >= 0");
    cfg.path_loss.min_distance_m =
        get_double(*pl, "min_distance_m", cfg.path_loss.min_distance_m);
  }
  cfg.mobility.step_m = get_double(j, "walk_step_m", cfg.mobility.step_m);
  check_field(finite_nonnegative(cfg.mobility.step_m), "walk_step_m",
              "a finite number >= 0");
  if (const Json* bsses = j.find("interferers")) {
    if (!bsses->is_array())
      throw std::runtime_error("protocol: \"interferers\" must be an array");
    for (const Json& b : bsses->as_array()) {
      scenario::InterfererBss bss;
      bss.position.x = get_double(b, "x", 0.0);
      bss.position.y = get_double(b, "y", 0.0);
      bss.tx_power_dbm = get_double(b, "tx_power_dbm", bss.tx_power_dbm);
      bss.offset_hz = get_double(b, "offset_hz", bss.offset_hz);
      cfg.interferers.push_back(bss);
    }
  }
  cfg.seed = get_u64(j, "seed", cfg.seed);
  cfg.link = link_from_json(require(j, "link"));
  cfg.snr_bin_db = get_double(j, "snr_bin_db", cfg.snr_bin_db);
  cfg.snr_min_db = get_double(j, "snr_min_db", cfg.snr_min_db);
  cfg.snr_max_db = get_double(j, "snr_max_db", cfg.snr_max_db);
  cfg.adj_bin_db = get_double(j, "adj_bin_db", cfg.adj_bin_db);
  cfg.adj_floor_db = get_double(j, "adj_floor_db", cfg.adj_floor_db);
  cfg.rule = rule_from_json(require(j, "rule"));
  cfg.use_store = get_bool(j, "use_store", true);
  return req;
}

Json progress_to_json(const core::SweepPointProgress& p) {
  Json j = Json::object();
  j.set("packets", Json::number_u64(p.packets));
  j.set("packets_lost", Json::number_u64(p.packets_lost));
  j.set("packet_errors", Json::number_u64(p.packet_errors));
  j.set("bits", Json::number_u64(p.bits));
  j.set("bit_errors", Json::number_u64(p.bit_errors));
  j.set("evm_sum", Json::number(p.evm_sum));
  j.set("evm_packets", Json::number_u64(p.evm_packets));
  j.set("stopped", Json::boolean(p.stopped));
  j.set("converged", Json::boolean(p.converged));
  return j;
}

core::SweepPointProgress progress_from_json(const Json& j) {
  if (!j.is_object())
    throw std::runtime_error("protocol: progress entry must be an object");
  core::SweepPointProgress p;
  p.packets = require(j, "packets").as_u64();
  p.packets_lost = require(j, "packets_lost").as_u64();
  p.packet_errors = require(j, "packet_errors").as_u64();
  p.bits = require(j, "bits").as_u64();
  p.bit_errors = require(j, "bit_errors").as_u64();
  p.evm_sum = require(j, "evm_sum").as_double();
  p.evm_packets = require(j, "evm_packets").as_u64();
  p.stopped = require(j, "stopped").as_bool();
  p.converged = require(j, "converged").as_bool();
  return p;
}

Json progress_array_to_json(std::span<const core::SweepPointProgress> ps) {
  Json arr = Json::array();
  for (const core::SweepPointProgress& p : ps)
    arr.push_back(progress_to_json(p));
  return arr;
}

std::vector<core::SweepPointProgress> progress_array_from_json(const Json& j) {
  if (!j.is_array())
    throw std::runtime_error("protocol: progress must be an array");
  std::vector<core::SweepPointProgress> ps;
  ps.reserve(j.as_array().size());
  for (const Json& p : j.as_array()) ps.push_back(progress_from_json(p));
  return ps;
}

Json ShardRequest::to_json() const {
  Json j = Json::object();
  j.set("op", Json::string("shard"));
  Json arr = Json::array();
  for (const core::LinkConfig& cfg : links) arr.push_back(link_to_json(cfg));
  j.set("links", std::move(arr));
  j.set("rule", rule_to_json(rule));
  j.set("threads", Json::number_u64(threads));
  j.set("report_every_waves", Json::number_u64(report_every_waves));
  if (!resume.empty()) j.set("resume", progress_array_to_json(resume));
  return j;
}

ShardRequest ShardRequest::from_json(const Json& j) {
  ShardRequest req;
  const Json& links = require(j, "links");
  if (!links.is_array() || links.as_array().empty())
    throw std::runtime_error("protocol: \"links\" must be a non-empty array");
  req.links.reserve(links.as_array().size());
  for (const Json& l : links.as_array()) req.links.push_back(link_from_json(l));
  req.rule = rule_from_json(require(j, "rule"));
  req.threads = static_cast<std::size_t>(get_u64(j, "threads", 0));
  req.report_every_waves =
      static_cast<std::size_t>(get_u64(j, "report_every_waves", 1));
  if (req.report_every_waves == 0) req.report_every_waves = 1;
  if (const Json* r = j.find("resume")) {
    req.resume = progress_array_from_json(*r);
    if (req.resume.size() != req.links.size())
      throw std::runtime_error(
          "protocol: \"resume\" must carry one entry per link");
  }
  return req;
}

Json shard_progress_response(std::span<const core::SweepPointProgress> ps) {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  j.set("shard", Json::string("progress"));
  j.set("progress", progress_array_to_json(ps));
  return j;
}

Json shard_done_response(const std::vector<core::BerResult>& results,
                         std::span<const core::SweepPointProgress> ps,
                         std::uint64_t resumed_packets) {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  j.set("shard", Json::string("done"));
  Json res = Json::array();
  for (const core::BerResult& r : results) res.push_back(result_to_json(r));
  j.set("results", std::move(res));
  j.set("progress", progress_array_to_json(ps));
  j.set("resumed_packets", Json::number_u64(resumed_packets));
  return j;
}

ShardReply shard_reply_from_json(const Json& j) {
  if (!j.is_object())
    throw std::runtime_error("protocol: shard reply must be an object");
  if (!get_bool(j, "ok", false)) {
    const Json* err = j.find("error");
    throw std::runtime_error(err && err->is_string()
                                 ? err->as_string()
                                 : std::string("shard worker error"));
  }
  ShardReply reply;
  const std::string kind = require(j, "shard").as_string();
  if (kind == "done") {
    reply.done = true;
  } else if (kind != "progress") {
    throw std::runtime_error("protocol: shard kind must be progress|done");
  }
  reply.progress = progress_array_from_json(require(j, "progress"));
  if (reply.done) {
    for (const Json& r : require(j, "results").as_array())
      reply.results.push_back(result_from_json(r));
    reply.resumed_packets = get_u64(j, "resumed_packets", 0);
  }
  return reply;
}

Json error_response(const std::string& message, bool resumable) {
  Json j = Json::object();
  j.set("ok", Json::boolean(false));
  j.set("error", Json::string(message));
  if (resumable) j.set("resumable", Json::boolean(true));
  return j;
}

Json results_response(const std::vector<double>& values,
                      const std::vector<core::BerResult>& results,
                      const core::DedupStats& stats) {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  Json vals = Json::array();
  for (const double v : values) vals.push_back(Json::number(v));
  j.set("values", std::move(vals));
  Json res = Json::array();
  for (const core::BerResult& r : results) res.push_back(result_to_json(r));
  j.set("results", std::move(res));
  Json st = Json::object();
  st.set("queries", Json::number_u64(stats.queries));
  st.set("distinct", Json::number_u64(stats.distinct));
  st.set("warm", Json::number_u64(stats.warm));
  st.set("cold", Json::number_u64(stats.cold));
  j.set("stats", std::move(st));
  return j;
}

ResultsReply results_reply_from_json(const Json& j) {
  if (!j.is_object())
    throw std::runtime_error("protocol: response must be an object");
  if (!get_bool(j, "ok", false)) {
    const Json* err = j.find("error");
    throw std::runtime_error(err && err->is_string()
                                 ? err->as_string()
                                 : std::string("service error"));
  }
  ResultsReply reply;
  for (const Json& v : require(j, "values").as_array())
    reply.values.push_back(v.as_double());
  for (const Json& r : require(j, "results").as_array())
    reply.results.push_back(result_from_json(r));
  if (const Json* st = j.find("stats")) {
    reply.stats.queries = static_cast<std::size_t>(get_u64(*st, "queries", 0));
    reply.stats.distinct =
        static_cast<std::size_t>(get_u64(*st, "distinct", 0));
    reply.stats.warm = static_cast<std::size_t>(get_u64(*st, "warm", 0));
    reply.stats.cold = static_cast<std::size_t>(get_u64(*st, "cold", 0));
  }
  return reply;
}

Json drop_response(const scenario::DropSummary& summary) {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  Json steps = Json::array();
  for (const scenario::StepSummary& st : summary.steps) {
    Json s = Json::object();
    s.set("step", Json::number_u64(st.step));
    s.set("queries", Json::number_u64(st.dedup.queries));
    s.set("distinct", Json::number_u64(st.dedup.distinct));
    s.set("warm", Json::number_u64(st.dedup.warm));
    s.set("cold", Json::number_u64(st.dedup.cold));
    s.set("wall_seconds", Json::number(st.wall_seconds));
    s.set("mean_snr_db", Json::number(st.mean_snr_db));
    s.set("mean_ber", Json::number(st.mean_ber));
    s.set("mean_goodput_mbps", Json::number(st.mean_goodput_mbps));
    steps.push_back(std::move(s));
  }
  j.set("steps", std::move(steps));
  Json tot = Json::object();
  tot.set("queries", Json::number_u64(summary.totals.queries));
  tot.set("distinct", Json::number_u64(summary.totals.distinct));
  tot.set("warm", Json::number_u64(summary.totals.warm));
  tot.set("cold", Json::number_u64(summary.totals.cold));
  j.set("totals", std::move(tot));
  j.set("wall_seconds", Json::number(summary.wall_seconds));
  return j;
}

scenario::DropSummary drop_summary_from_json(const Json& j) {
  if (!j.is_object())
    throw std::runtime_error("protocol: drop response must be an object");
  if (!get_bool(j, "ok", false)) {
    const Json* err = j.find("error");
    throw std::runtime_error(err && err->is_string()
                                 ? err->as_string()
                                 : std::string("service error"));
  }
  scenario::DropSummary summary;
  for (const Json& s : require(j, "steps").as_array()) {
    scenario::StepSummary st;
    st.step = static_cast<std::uint32_t>(require(s, "step").as_u64());
    st.dedup.queries = static_cast<std::size_t>(require(s, "queries").as_u64());
    st.dedup.distinct =
        static_cast<std::size_t>(require(s, "distinct").as_u64());
    st.dedup.warm = static_cast<std::size_t>(require(s, "warm").as_u64());
    st.dedup.cold = static_cast<std::size_t>(require(s, "cold").as_u64());
    st.wall_seconds = require(s, "wall_seconds").as_double();
    st.mean_snr_db = require(s, "mean_snr_db").as_double();
    st.mean_ber = require(s, "mean_ber").as_double();
    st.mean_goodput_mbps = require(s, "mean_goodput_mbps").as_double();
    summary.steps.push_back(st);
  }
  const Json& tot = require(j, "totals");
  summary.totals.queries =
      static_cast<std::size_t>(require(tot, "queries").as_u64());
  summary.totals.distinct =
      static_cast<std::size_t>(require(tot, "distinct").as_u64());
  summary.totals.warm = static_cast<std::size_t>(require(tot, "warm").as_u64());
  summary.totals.cold = static_cast<std::size_t>(require(tot, "cold").as_u64());
  summary.wall_seconds = require(j, "wall_seconds").as_double();
  return summary;
}

}  // namespace wlansim::service
