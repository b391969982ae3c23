// service_mixed: an in-process service::Server on a Unix socket under a
// closed loop of nproc client connections. nproc-1 readers send warm
// "eval" requests against a fingerprint setup calibrated; one writer sends
// a "sweep" on a never-seen fingerprint (a new LNA P1dB each time) after
// every kReadsPerWrite reads per reader, so each write runs a cold
// Monte-Carlo pass, backfills the store and writes checkpoints while the
// reads queue behind it on the single engine thread.
//
// The request shapes are those of the service benchmarks in
// bench/engine_perf.cpp: a read is BM_ServiceWarmQuery's 11-link warm query
// (here at drawn SNRs, so lookups interpolate), a write is
// BM_ServiceColdCoalesced's 8-point cold sweep, both on the 60-byte link
// under service_bench_rule (adaptive: CI 50 %, 20 errors, 8..48 packets).
// No caller in the repository sends a mixed stream, so the read/write
// ratio is this benchmark's choice. A reader blocks for a whole cold pass
// on the one read it sent during it, so with kReadsPerWrite reads per
// reader between writes about 1 read in kReadsPerWrite + 1 (4 %) queues
// behind a cold pass: warm_p50_ms then measures idle reads and
// warm_p99_ms reads that waited out a cold pass. Each write draws its own
// link seed, so cold_p50_s is a median over writes of different packet
// streams rather than one stream's stopping points.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/experiments.h"
#include "core/fingerprint.h"
#include "core/surrogate.h"
#include "service/checkpoint.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/shard.h"
#include "trace.h"

namespace wlbench {
namespace {

using namespace wlansim;

constexpr double kWarmLo = 4.0;
constexpr double kWarmHi = 14.0;
constexpr double kBin = 0.5;
constexpr std::size_t kLinksPerRead = 11;
constexpr std::size_t kPool = 64;
constexpr std::size_t kReadsPerWrite = 24;  // per reader, between writes
constexpr std::size_t kMinWarm = 2000;  // p99 with 20 samples beyond it
constexpr std::size_t kMinWrites = 12;
constexpr std::size_t kWritesPerStep = 2;

/// bench/engine_perf.cpp's service_bench_rule: the rule of every request.
sim::StoppingRule bench_rule() {
  sim::StoppingRule r;
  r.target_rel_ci = 0.5;
  r.min_errors = 20;
  r.min_packets = 8;
  r.max_packets = 48;
  return r;
}

core::LinkConfig base_link(std::uint64_t seed, std::uint64_t stream) {
  core::LinkConfig c = core::default_link_config();
  c.psdu_bytes = 60;
  c.seed = mix(seed, stream) >> 32;
  return c;
}

service::SweepRequest write_request(std::uint64_t seed, std::size_t k) {
  service::SweepRequest w;
  w.param = "snr";
  w.from = 4.0;
  w.to = 11.0;
  w.step = 1.0;
  w.base = base_link(seed, 1000 + k);
  // A distinct compression point per write: a new fingerprint, so a cold
  // pass, at an operating point the link does not notice.
  w.base.rf.lna_p1db_in_dbm = -24.0 - 0.01 * static_cast<double>(k);
  w.rule = bench_rule();
  w.bin_width_db = 0.0;
  w.use_store = true;
  return w;
}

bool same(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool same_results(const std::vector<core::BerResult>& got,
                  const core::BerResult* want, std::size_t n) {
  if (got.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const core::BerResult &a = got[i], &b = want[i];
    if (a.packets != b.packets || a.packets_lost != b.packets_lost ||
        a.packet_errors != b.packet_errors || a.bits != b.bits ||
        a.bit_errors != b.bit_errors || a.converged != b.converged ||
        a.from_surrogate != b.from_surrogate ||
        !same(a.evm_rms_avg, b.evm_rms_avg) ||
        !same(a.ber_ci_rel, b.ber_ci_rel) || !same(a.model_ber, b.model_ber) ||
        !same(a.model_per, b.model_per))
      return false;
  }
  return true;
}

/// Parse a results line; nullopt on a malformed or ok:false reply.
std::optional<service::ResultsReply> parse_reply(const std::string& line) {
  const std::optional<service::Json> j = service::Json::parse(line);
  if (!j) return std::nullopt;
  try {
    return service::results_reply_from_json(*j);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// One client connection speaking newline-delimited JSON.
class Client {
 public:
  explicit Client(const std::filesystem::path& sock)
      : fd_(service::connect_unix_retry(sock, 5000)) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line and read one reply line; false on any socket
  /// failure (a refused request).
  bool call(const std::string& request, std::string& reply) {
    if (fd_ < 0) return false;
    const std::string line = request + "\n";
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        reply.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char tmp[65536];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

struct Timed {
  std::int64_t t0, t1;
  bool ok;
};

class Service final : public Journey {
 public:
  explicit Service(const Context& ctx) : ctx_(ctx) {}
  ~Service() override {
    if (server_) server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }
  const char* name() const override { return "service"; }

  void setup(const std::filesystem::path& dir) override {
    dir_ = dir;
    std::filesystem::create_directories(dir_);
    service::Server::Options opts;
    opts.socket_path = dir_ / "s.sock";
    opts.scheduler.store_dir = dir_ / "store";
    opts.scheduler.checkpoint_dir = dir_ / "ckpt";
    server_ = std::make_unique<service::Server>(opts);
    thread_ = std::thread([this] { server_->run(); });

    // Calibrate the readers' fingerprint over the whole span they query.
    service::EvalRequest fill;
    fill.rule = bench_rule();
    fill.bin_width_db = kBin;
    for (double x = kWarmLo; x <= kWarmHi + 1e-9; x += kBin) {
      core::LinkConfig c = base_link(ctx_.seed, 400);
      c.snr_db = x;
      fill.links.push_back(c);
    }
    Client c(server_->socket_path());
    std::string reply;
    if (!c.call(fill.to_json().dump(), reply) || !parse_reply(reply))
      throw std::runtime_error("service setup: warm fill failed: " + reply);

    // The readers' request pool and its in-process answers.
    lines_.clear();
    refs_.clear();
    core::DedupOptions d;
    d.surrogate.store_dir = dir_ / "store";
    d.surrogate.rule = bench_rule();
    d.bin_width_db = kBin;
    for (std::size_t p = 0; p < kPool; ++p) {
      service::EvalRequest req;
      req.rule = bench_rule();
      req.bin_width_db = kBin;
      for (std::size_t l = 0; l < kLinksPerRead; ++l) {
        core::LinkConfig c = base_link(ctx_.seed, 400);
        c.snr_db = kWarmLo + (kWarmHi - kWarmLo) *
                                 unit_draw(ctx_.seed, 500 + p * kLinksPerRead + l);
        req.links.push_back(c);
      }
      lines_.push_back(req.to_json().dump());
      refs_.push_back(core::sweep_ber_deduped(req.links, d));
    }
    read_fp_ = core::surrogate_fingerprint(base_link(ctx_.seed, 400),
                                           sim::SurrogateAxis::kSnrDb);
  }

  void step(Report&) override {
    if (!started_) {
      before_ = server_->scheduler().stats();
      next_.assign(readers(), 0);
      started_ = true;
    }
    const std::size_t nr = readers();
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> reads{0};
    std::vector<std::vector<Timed>> rt(nr);
    const bool traced = tracing();
    auto lookup = [&](sim::BerSurrogate& view, const std::string& fp) {
      if (!traced) return;
      view.invalidate();
      lookups_.fetch_add(1);
      if (view.lookup(fp) != nullptr) hits_.fetch_add(1);
    };

    const std::int64_t start = now_ns();
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < nr; ++r) {
      threads.emplace_back([&, r] {
        Client c(server_->socket_path());
        sim::BerSurrogate view{sim::CalibrationStore(dir_ / "store")};
        std::string reply;
        while (!stop.load()) {
          const std::size_t n = next_[r]++;
          const std::size_t p = (r + n * nr) % kPool;
          lookup(view, read_fp_);
          const std::int64_t t0 = now_ns();
          bool ok;
          {
            Span s("service.request", 1.0, (r << 32) | n);
            ok = c.call(lines_[p], reply);
            if (ok) {
              const auto got = parse_reply(reply);
              ok = got && same_results(got->results, refs_[p].data(),
                                       refs_[p].size());
            }
          }
          rt[r].push_back({t0, now_ns(), ok});
          reads.fetch_add(1);
        }
      });
    }
    {
      // The writer: kReadsPerWrite reads per reader, then one cold sweep.
      Client c(server_->socket_path());
      sim::BerSurrogate view{sim::CalibrationStore(dir_ / "store")};
      std::string reply;
      for (std::size_t w = 0; w < kWritesPerStep; ++w) {
        const std::size_t mark = reads.load();
        while (reads.load() < mark + nr * kReadsPerWrite)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        const std::size_t k = write_times_.size();
        const service::SweepRequest req = write_request(ctx_.seed, k);
        lookup(view, core::surrogate_fingerprint(req.base,
                                                 sim::SurrogateAxis::kSnrDb));
        const std::string line = req.to_json().dump();
        const std::int64_t t0 = now_ns();
        bool ok;
        {
          Span s("service.request", 1.0, (std::uint64_t{0xffff} << 32) | k);
          ok = c.call(line, reply);
        }
        write_times_.push_back({t0, now_ns(), ok});
        write_replies_.push_back(ok ? reply : std::string());
      }
    }
    stop.store(true);
    for (auto& t : threads) t.join();
    wall_s_ += seconds_since(start);
    requests_ += kWritesPerStep;
    for (auto& v : rt) {
      requests_ += v.size();
      read_times_.insert(read_times_.end(), v.begin(), v.end());
    }
  }

  bool enough() const override {
    return read_times_.size() >= kMinWarm && write_times_.size() >= kMinWrites;
  }

  void finish(Report& rep) override {
    // Latencies; a refused or wrong answer counts as missing any limit.
    for (const Timed& t : read_times_) {
      const double ms =
          t.ok ? 1e-6 * static_cast<double>(t.t1 - t.t0) : INFINITY;
      rep.sample("warm_ms", ms);
      // Head-of-line: the read was sent while a cold write was in flight.
      bool overlap = false;
      for (const Timed& w : write_times_)
        overlap = overlap || (w.t0 <= t.t0 && t.t0 < w.t1);
      rep.sample(overlap ? "warm_overlap_ms" : "warm_idle_ms", ms);
      rep.check(t.ok, "service: warm reply refused or differs from reference");
    }
    for (const Timed& w : write_times_)
      rep.sample("cold_s", w.ok ? 1e-9 * static_cast<double>(w.t1 - w.t0)
                                : INFINITY);
    rep.sample("service_requests", static_cast<double>(requests_));
    rep.sample("service_wall_s", wall_s_);

    // Each write's reply against an in-process sweep_ber_deduped on the
    // same configs (no store: every key cold, as it was for the server),
    // one write at a time so the check adds no peak memory of its own.
    core::DedupOptions d;
    d.surrogate.rule = bench_rule();
    d.bin_width_db = 0.0;
    d.use_store = false;
    for (std::size_t k = 0; k < write_times_.size(); ++k) {
      const auto want =
          core::sweep_ber_deduped(write_request(ctx_.seed, k).expand(), d);
      const auto got = parse_reply(write_replies_[k]);
      rep.check(write_times_[k].ok && got &&
                    same_results(got->results, want.data(), want.size()),
                "service: cold reply refused or differs from reference");
      if (k == 0) first_write_ = want;
    }

    const service::SchedulerStats after = server_->scheduler().stats();
    rep.count("svc_jobs", static_cast<double>(after.jobs - before_.jobs));
    rep.count("svc_batches",
              static_cast<double>(after.batches - before_.batches));
    rep.count("lookup_hits", static_cast<double>(hits_.load()));
    rep.count("lookups", static_cast<double>(lookups_.load()));
  }

  double unit() override {
    Client c(server_->socket_path());
    std::string reply;
    const std::int64_t t0 = now_ns();
    for (std::size_t n = 0; n < 200; ++n) {
      Span s("service.request", 1.0, n);
      (void)c.call(lines_[n % kPool], reply);
    }
    return seconds_since(t0);
  }

  void layers(Report& rep) override {
    // handle_line in process and the same line over the socket, paired
    // call by call so drift cancels out of service.wire_us.
    constexpr std::size_t kCalls = 4 * kPool;
    std::vector<std::string> replies(kPool);
    {
      Client c(server_->socket_path());
      std::string reply;
      for (std::size_t n = 0; n < kCalls; ++n) {
        std::int64_t t0 = now_ns();
        {
          Span s("service.handle_line", 1.0, n);
          replies[n % kPool] = server_->handle_line(lines_[n % kPool]);
        }
        const double hl = 1e-3 * static_cast<double>(now_ns() - t0);
        t0 = now_ns();
        (void)c.call(lines_[n % kPool], reply);
        const double rt = 1e-3 * static_cast<double>(now_ns() - t0);
        rep.sample("handle_line_us", hl);
        rep.sample("wire_us", rt - hl);
      }
    }
    for (std::size_t n = 0; n < kCalls; ++n) {
      Span s("service.codec", 1.0, n);
      const auto req = service::EvalRequest::from_json(
          *service::Json::parse(lines_[n % kPool]));
      const std::string again = req.to_json().dump();
      const auto got = parse_reply(replies[n % kPool]);
      rep.check(again == lines_[n % kPool] && got.has_value(),
                "service: codec round trip changed a request");
    }
    // Checkpoint writes of one write's progress, as the cold pass saves it.
    if (!first_write_.empty()) {
      const auto cfgs = write_request(ctx_.seed, 0).expand();
      std::vector<core::SweepPointProgress> prog;
      for (const core::BerResult& r : first_write_) {
        core::SweepPointProgress p;
        p.packets = r.packets;
        p.packets_lost = r.packets_lost;
        p.packet_errors = r.packet_errors;
        p.bits = r.bits;
        p.bit_errors = r.bit_errors;
        p.evm_packets = r.packets - r.packets_lost;
        p.evm_sum = r.evm_rms_avg * static_cast<double>(p.evm_packets);
        p.stopped = true;
        p.converged = r.converged;
        prog.push_back(p);
      }
      const std::string key = service::cold_pass_key(cfgs, bench_rule());
      constexpr int kSaves = 50;
      Span s("service.checkpoint_save", kSaves);
      for (int k = 0; k < kSaves; ++k)
        rep.check(service::save_checkpoint(dir_ / "ckpt-bench", key, prog),
                  "service: checkpoint save failed");
    }
  }

 private:
  Context ctx_;
  std::filesystem::path dir_;
  std::unique_ptr<service::Server> server_;
  std::thread thread_;
  std::vector<std::string> lines_;
  std::vector<std::vector<core::BerResult>> refs_;
  std::string read_fp_;
  std::size_t readers() const { return std::max<std::size_t>(1, ctx_.nproc - 1); }

  // Measured state, accumulated over steps.
  bool started_ = false;
  service::SchedulerStats before_;
  std::vector<std::size_t> next_;  ///< per-reader request counter
  std::vector<Timed> read_times_;
  std::vector<Timed> write_times_;
  std::vector<std::string> write_replies_;
  std::size_t requests_ = 0;
  double wall_s_ = 0.0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::vector<core::BerResult> first_write_;  ///< its reference results
};

}  // namespace

std::unique_ptr<Journey> make_service(const Context& ctx) {
  return std::make_unique<Service>(ctx);
}

}  // namespace wlbench
