// wlbench: the load generator behind perfbench/run.py.
//
//   wlbench --workload NAME --seed N --seconds S --trace 0|1
//           --workdir DIR --out REPORT.json [--spans SPANS.jsonl]
//   wlbench --make-reference SEEDS --out REPORT.json
//
// Every run sets up all four journeys (timed three times; setup_s is their
// median), then interleaves their steps: the named workload's journey gets
// 40 % of --seconds, the other three 20 % each, so every run yields
// every end-to-end metric and every metric samples the whole run. A traced
// run adds spans and the per-layer replays. The raw report goes to --out;
// run.py computes the metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "trace.h"

namespace {

using namespace wlbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string out;
  std::string spans;
  std::size_t make_reference = 0;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--make-reference") a.make_reference = std::stoul(v);
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.out.empty()) throw std::invalid_argument("--out is required");
  if (a.make_reference == 0 && (a.workload.empty() || a.workdir.empty()))
    throw std::invalid_argument("--workload and --workdir are required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::vector<std::unique_ptr<Journey>> make_all(const Context& ctx) {
  std::vector<std::unique_ptr<Journey>> js;
  js.push_back(make_waterfall(ctx));
  js.push_back(make_drop(ctx));
  js.push_back(make_service(ctx));
  js.push_back(make_cosim(ctx));
  return js;
}

/// CPUs this process may run on (its affinity mask, so a cpuset or taskset
/// counts): the load is sized from it, and run.py records it as the
/// fingerprint's nproc.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

constexpr int kSetupReps = 3;
constexpr double kFocusWeight = 2.0;  // of 5: 40 % of the run
/// Stop stepping past this multiple of --seconds even when a journey still
/// lacks samples (run.py then refuses the run).
constexpr double kOverrun = 4.0;

/// Fair-share interleaving: always step the journey that has used the
/// least of its weighted share, until every journey has used its budget
/// and has enough samples.
void measure_all(std::vector<std::unique_ptr<Journey>>& js, int focus,
                 double seconds, Report& rep) {
  std::vector<double> used(js.size(), 0.0), weight(js.size(), 1.0);
  weight[focus] = kFocusWeight;
  double total_weight = 0.0;
  for (double w : weight) total_weight += w;
  const std::int64_t start = now_ns();
  for (;;) {
    int pick = -1;
    for (int i = 0; i < static_cast<int>(js.size()); ++i) {
      const bool done =
          used[i] >= seconds * weight[i] / total_weight && js[i]->enough();
      if (!done && (pick < 0 || used[i] / weight[i] < used[pick] / weight[pick]))
        pick = i;
    }
    if (pick < 0 || seconds_since(start) > kOverrun * seconds) break;
    const std::int64_t t0 = now_ns();
    js[pick]->step(rep);
    used[pick] += seconds_since(t0);
  }
  for (auto& j : js) j->finish(rep);
}

int run(const Args& a) {
  Report rep;
  if (a.make_reference > 0) {
    make_waterfall_reference(a.make_reference, rep);
    if (!rep.write(a.out)) throw std::runtime_error("cannot write " + a.out);
    return 0;
  }

  static const char* const kFocus[] = {"waterfall_cold", "drop_warm",
                                       "service_mixed", "cosim_table2"};
  int focus = -1;
  for (int i = 0; i < 4; ++i)
    if (a.workload == kFocus[i]) focus = i;
  if (focus < 0) throw std::invalid_argument("unknown workload " + a.workload);

  const std::filesystem::path out = std::filesystem::absolute(a.out);
  const std::filesystem::path spans_out =
      a.spans.empty() ? std::filesystem::path()
                      : std::filesystem::absolute(a.spans);
  std::filesystem::create_directories(a.workdir);
  // Work inside the run directory: store, checkpoint and socket paths stay
  // short and relative (a socket path must fit a sockaddr_un).
  std::filesystem::current_path(a.workdir);

  Context ctx;
  ctx.seed = a.seed;
  ctx.nproc = usable_cpus();
  set_tracing(a.trace);
  rep.info("build_type", WLBENCH_BUILD_TYPE);
  rep.info("wlansim_native", WLBENCH_NATIVE ? "ON" : "OFF");
  rep.info("compiler", WLBENCH_COMPILER);
  rep.count("nproc", static_cast<double>(ctx.nproc));

  std::vector<std::unique_ptr<Journey>> js;
  for (int r = 0; r < kSetupReps; ++r) {
    js = make_all(ctx);  // tears the previous repetition down first
    const std::int64_t t0 = now_ns();
    {
      Span s("setup");
      for (auto& j : js)
        j->setup(std::filesystem::path("setup" + std::to_string(r)) /
                 j->name());
    }
    rep.sample("setup_s", seconds_since(t0));
  }

  if (a.trace) {
    // trace.overhead: one fixed unit of the named journey, untraced and
    // traced, twice each.
    double off = 0.0, on = 0.0;
    for (int k = 0; k < 2; ++k) {
      set_tracing(false);
      off += js[focus]->unit();
      set_tracing(true);
      on += js[focus]->unit();
    }
    rep.sample("trace_unit_untraced_s", off);
    rep.sample("trace_unit_traced_s", on);
  }

  measure_all(js, focus, a.seconds, rep);

  if (a.trace) {
    for (auto& j : js) j->layers(rep);
    packet_layer_replays(ctx, rep);
  }

  js.clear();  // stops the service and joins its threads
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.sample("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  if (!rep.write(out)) throw std::runtime_error("cannot write " + a.out);
  if (a.trace && !spans_out.empty() && !write_spans(spans_out))
    throw std::runtime_error("cannot write " + a.spans);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlbench: %s\n", e.what());
    return 1;
  }
}
