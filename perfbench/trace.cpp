#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <vector>

#include "service/json.h"

namespace wlbench {
namespace {

using wlansim::service::Json;

struct SpanRecord {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t rid;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
  double work;
  const char* name;  ///< always a string literal
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu
thread_local std::uint64_t t_open = 0;  // innermost open span on this thread

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) { g_on.store(on); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }

bool write_spans(const std::filesystem::path& path) {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    all = g_spans;
  }
  std::ofstream out(path);
  for (const SpanRecord& s : all) {
    Json j = Json::object();
    j.set("id", Json::number_u64(s.id));
    j.set("parent", Json::number_u64(s.parent));
    j.set("rid", Json::number_u64(s.rid));
    j.set("name", Json::string(s.name));
    j.set("t0_ns", Json::number_u64(static_cast<std::uint64_t>(s.t0_ns)));
    j.set("t1_ns", Json::number_u64(static_cast<std::uint64_t>(s.t1_ns)));
    j.set("work", Json::number(s.work));
    out << j.dump() << '\n';
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name, double work, std::uint64_t rid)
    : name_(name), work_(work), rid_(rid) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = t_open;
  t_open = id_;
  t0_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t t1 = now_ns();
  t_open = parent_;
  const SpanRecord rec{id_, parent_, rid_, t0_, t1, work_, name_};
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(rec);
}

}  // namespace wlbench
