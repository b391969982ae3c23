#include <cmath>
#include <fstream>

#include "bench.h"
#include "service/json.h"

namespace wlbench {

using wlansim::service::Json;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit_draw(std::uint64_t seed, std::uint64_t stream) {
  return static_cast<double>(mix(seed, stream) >> 11) * 0x1.0p-53;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

namespace {

/// Finite doubles as numbers, the rest as the strings the service protocol
/// uses ("inf", "-inf", "nan"): JSON has no tokens for them.
Json number_or_special(double v) {
  if (std::isfinite(v)) return Json::number(v);
  if (std::isnan(v)) return Json::string("nan");
  return Json::string(v > 0 ? "inf" : "-inf");
}

}  // namespace

bool Report::write(const std::filesystem::path& path) const {
  Json failures = Json::array();
  for (const std::string& f : failures_) failures.push_back(Json::string(f));
  Json samples = Json::object();
  for (const auto& [k, vs] : samples_) {
    Json a = Json::array();
    for (const double v : vs) a.push_back(number_or_special(v));
    samples.set(k, std::move(a));
  }
  Json counters = Json::object();
  for (const auto& [k, v] : counters_) counters.set(k, number_or_special(v));
  Json info = Json::object();
  for (const auto& [k, v] : info_) info.set(k, Json::string(v));
  Json rows = Json::object();
  for (const auto& [table, rs] : rows_) {
    Json a = Json::array();
    for (const auto& r : rs) {
      Json o = Json::object();
      for (const auto& [k, v] : r) o.set(k, number_or_special(v));
      a.push_back(std::move(o));
    }
    rows.set(table, std::move(a));
  }
  Json doc = Json::object();
  doc.set("attempted", Json::number_u64(attempted_));
  doc.set("failed", Json::number_u64(failed_));
  doc.set("failures", std::move(failures));
  doc.set("samples", std::move(samples));
  doc.set("counters", std::move(counters));
  doc.set("info", std::move(info));
  doc.set("rows", std::move(rows));
  std::ofstream out(path);
  out << doc.dump() << '\n';
  return static_cast<bool>(out);
}

}  // namespace wlbench
