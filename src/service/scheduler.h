// The service scheduler: cross-request batching over the deduplicated
// sweep engine.
//
// Jobs accumulate in a queue while the engine thread is busy; each engine
// pass drains the WHOLE queue, groups the drained jobs by evaluation
// semantics (axis, bin width, stopping rule, store use), and runs each
// group as ONE core::sweep_ber_deduped call over the concatenation of the
// group's configs. That is the perf headline: overlapping keys across
// concurrent requests dedup into a single evaluation, cold keys share one
// pooled adaptive pass (cross-point work stealing + TX-scene memoization
// across the whole miss list), and warm keys are store lookups through a
// persistent in-memory curve cache. Because every deduped result is a pure
// function of (representative config, rule) — the PR-8 first-appearance-
// order contract — coalescing changes THROUGHPUT, never bits: each job's
// results are identical to running it alone.
//
// Cold passes run through service/checkpoint.h: progress persists at every
// wave boundary and a stop() preempts at the next boundary, failing the
// affected jobs with PreemptedError while keeping their progress on disk.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/surrogate.h"
#include "scenario/drop.h"
#include "service/shard.h"
#include "sim/ber_surrogate.h"

namespace wlansim::service {

/// One evaluation job: a list of links under one rule and dedup policy.
struct JobRequest {
  std::vector<core::LinkConfig> configs;
  sim::StoppingRule rule;
  sim::SurrogateAxis axis = sim::SurrogateAxis::kSnrDb;
  double bin_width_db = 0.0;
  bool use_store = true;
};

struct JobResult {
  /// results[i] answers configs[i]; bit-identical to
  /// core::sweep_ber_deduped(configs, ...) run alone.
  std::vector<core::BerResult> results;
  /// Dedup statistics of the POOLED pass that served this job (a job
  /// coalesced with others reports the whole group's distinct/warm/cold —
  /// that is the point), except `queries`, which is this job's own count.
  core::DedupStats stats;
};

struct SchedulerStats {
  std::uint64_t jobs = 0;      ///< submitted
  std::uint64_t batches = 0;   ///< engine passes (queue drains)
  std::uint64_t groups = 0;    ///< sweep_ber_deduped calls
  std::uint64_t preempted = 0; ///< jobs failed by shutdown preemption
  std::uint64_t drops = 0;     ///< drop jobs completed
  core::DedupStats dedup;      ///< accumulated over all groups and drops
  // Shard-coordinator view (zero when sharding is not configured):
  std::size_t workers = 0;           ///< workers configured
  std::uint64_t sharded_passes = 0;  ///< cold passes fanned out
  std::uint64_t shard_reassigned = 0;
  std::uint64_t worker_respawns = 0;
};

class Scheduler {
 public:
  struct Options {
    /// Calibration store directory (the content-addressed result store);
    /// empty = core::default_calibration_dir().
    std::filesystem::path store_dir;
    /// Checkpoint directory; empty = store_dir.
    std::filesystem::path checkpoint_dir;
    /// Worker threads for MC passes (SweepOptions::threads semantics).
    std::size_t threads = 0;
    /// Save a checkpoint every Nth wave boundary (1 = every wave).
    std::size_t checkpoint_every_waves = 1;
    /// Start with the engine paused: submissions queue but do not run
    /// until resume() — deterministic coalescing for tests and benches.
    bool start_paused = false;
    /// Local worker processes to spawn for sharded cold passes
    /// (service/shard.h). 0 (+ no worker_sockets) = single-process cold
    /// passes, exactly the pre-sharding behavior.
    std::size_t workers = 0;
    /// Sockets of already-running worker daemons to attach.
    std::vector<std::filesystem::path> worker_sockets;
    /// Worker binary for spawned workers; empty = auto-resolve
    /// (ShardCoordinator::Options::worker_binary).
    std::filesystem::path worker_binary;
  };

  explicit Scheduler(Options opts);
  ~Scheduler();  // stop()

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue a job; the future resolves when its group's pass completes.
  /// Throws std::runtime_error after stop(). The future carries
  /// PreemptedError when a shutdown preempted the job (its cold-pass
  /// progress is checkpointed; resubmitting after restart resumes).
  std::future<JobResult> submit(JobRequest req);

  /// Enqueue a full drop (scenario::run_drop) on the engine thread. The
  /// drop's threads / store_dir are overridden with the daemon's own, and
  /// its pooled cold passes route through the same checkpointed (and
  /// sharded, when workers are configured) executor as sweep jobs.
  std::future<scenario::DropSummary> submit_drop(scenario::DropConfig cfg);

  /// Release a start_paused engine.
  void resume();

  /// Graceful stop: preempt any in-flight cold pass at its next wave
  /// boundary (checkpointing it), fail queued jobs with PreemptedError,
  /// and join the engine thread. Idempotent.
  void stop();

  SchedulerStats stats() const;

  const std::filesystem::path& store_dir() const { return store_dir_; }
  const std::filesystem::path& checkpoint_dir() const {
    return checkpoint_dir_;
  }
  /// The shard coordinator, or nullptr when sharding is not configured
  /// (tests SIGKILL its worker_pids()).
  ShardCoordinator* coordinator() { return coordinator_.get(); }

 private:
  struct Pending {
    JobRequest req;
    std::promise<JobResult> promise;
  };
  struct PendingDrop {
    scenario::DropConfig cfg;
    std::promise<scenario::DropSummary> promise;
  };

  void engine_loop();
  void run_batch(std::vector<Pending>& batch);
  void run_drops(std::vector<PendingDrop>& drops);
  core::ColdPassFn cold_pass_hook();

  Options opts_;
  std::filesystem::path store_dir_;
  std::filesystem::path checkpoint_dir_;
  sim::BerSurrogate cache_;  ///< persistent in-memory store view (engine only)
  std::unique_ptr<ShardCoordinator> coordinator_;  ///< null = unsharded

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> pending_;
  std::vector<PendingDrop> pending_drops_;
  bool paused_ = false;
  bool stopping_ = false;
  SchedulerStats stats_;
  std::atomic<bool> stop_flag_{false};  ///< read by the cold-pass hook
  std::thread engine_;
};

}  // namespace wlansim::service
