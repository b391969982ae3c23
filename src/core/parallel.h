// Multi-threaded BER measurement. Packet i's randomness depends only on
// (seed, i), so partitioning packets across worker threads reproduces the
// serial result bit-for-bit — parameter sweeps get a near-linear speedup
// without giving up reproducibility.
//
// One engine answers every Monte-Carlo question: sweep_ber_adaptive runs a
// list of configurations under a sim::StoppingRule. A fixed packet budget is
// the rule with the CI test off (sim::fixed_budget(n): target_rel_ci = 0,
// max_packets = n), and its results are bit-identical to
// WlanLink(cfg).run_ber(n) for every field except wall_seconds.
//
// Work runs on the process-wide persistent ThreadPool; each worker thread
// caches its WlanLinks between calls (keyed by a config fingerprint), so a
// sweep re-running the same configuration pays neither thread creation nor
// link construction per point.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/link.h"
#include "sim/sweep.h"

namespace wlansim::core {

struct SweepOptions {
  /// Worker count. 0 = the shared persistent pool at hardware concurrency;
  /// an explicit count runs on a dedicated pool of that size, capped at one
  /// worker per 8-packet chunk the sweep can run (configs x
  /// ceil(max_packets / 8)); 1 = inline on the calling thread.
  std::size_t threads = 0;
};

// ---------------------------------------------------------------------------
// Adaptive Monte-Carlo engine (sequential early stopping)
// ---------------------------------------------------------------------------
//
// A fixed packets-per-point budget spends almost all of its work where it
// buys nothing: the low-SNR points of a waterfall reach a tight BER
// confidence interval within a few dozen packets, while the budget has to
// be sized for the rare-error tail. The adaptive engine instead runs every
// point until sim::StoppingRule is satisfied (target relative CI + error
// floor) or the packet cap is hit, and lets points that converge early
// release their workers to the deep-SNR stragglers (cross-point work
// stealing over the shared chunk queue).
//
// Determinism contract — the results are a pure function of (configs,
// rule), independent of thread count, scheduling order, and wave sizing:
//   1. every packet's randomness derives from the counter-based seed
//      packet_seed(cfg.seed, packet_index) (see core/link.h), so per-packet
//      results are schedule-independent;
//   2. the stopping rule is evaluated on the in-order prefix of packet
//      results at fixed boundaries (every 8 packets, plus the cap), and the
//      stop index is the EARLIEST boundary whose prefix satisfies the rule
//      — packets the scheduler speculatively ran beyond it are discarded
//      deterministically;
//   3. each point's result is the packet-order reduction of its prefix
//      [0, stop index), the exact arithmetic of WlanLink::run_ber.
// With the CI test disabled (rule.target_rel_ci == 0) every point runs
// exactly rule.max_packets, bit-identical to WlanLink::run_ber.
//
// Checkpoint/resume: a point's state at any 8-packet boundary compresses to
// the streaming reduction of its prefix. Restart the engine with that state
// and it schedules, folds, and stops exactly as the uninterrupted run would
// from that boundary on. SweepPointProgress is that state; a service layer
// passes an AdaptiveResume to checkpoint million-point studies across
// process restarts (the file format lives in service/checkpoint.h; core
// only defines the state).

/// The boundary quantum [packets] at which adaptive progress is
/// evaluated, checkpointable, and resumable.
inline constexpr std::size_t kAdaptiveStopQuantum = 8;

/// Serializable progress of one adaptive sweep point: the streaming
/// packet-order reduction of the evaluated prefix. For a still-running
/// point, `packets` is quantum-aligned; a stopped point's `packets` is its
/// final stop index. The RNG needs no state of its own — counter-based
/// seeding makes `packets` the complete "rng counter state".
struct SweepPointProgress {
  std::uint64_t packets = 0;        ///< evaluated in-order prefix length
  std::uint64_t packets_lost = 0;
  std::uint64_t packet_errors = 0;
  std::uint64_t bits = 0;
  std::uint64_t bit_errors = 0;
  double evm_sum = 0.0;             ///< running EVM fold (exact packet order)
  std::uint64_t evm_packets = 0;    ///< decoded packets in the fold
  bool stopped = false;
  bool converged = false;           ///< rule met (vs. ran into the cap)
};

/// Resume state + per-wave observation hook for sweep_ber_adaptive.
struct AdaptiveResume {
  /// In: the state to resume from — either empty (cold start) or exactly
  /// one entry per config, each a state a previous run reported (running
  /// entries quantum-aligned and below the cap). Out: the final state.
  /// Invalid resume states throw std::invalid_argument.
  std::vector<SweepPointProgress> progress;

  /// Called after every wave's stopping scan with the current progress
  /// (quantum-boundary state, safe to checkpoint). Return false to preempt:
  /// the sweep stops scheduling, `progress` keeps the preempted state for a
  /// later resume, and the returned results carry the partial prefixes
  /// (un-stopped points report converged == false). Null = never preempt.
  std::function<bool(std::span<const SweepPointProgress>)> on_wave;

  /// Out: true when on_wave preempted the sweep before every point stopped.
  bool preempted = false;
};

/// Adaptive sweep: every point runs until `rule` stops it; active points
/// share one work queue, so early-converging points donate their workers to
/// the stragglers. When the configs share a TX fingerprint, each packet's
/// noise-independent TX scene is built once and replayed at every point
/// (the scene slots of WlanLink::run_packet_wave), bit-exactly. Each
/// BerResult carries the streaming statistics (packets run, errors, CI
/// half-width, wall time to the stopping decision, converged flag). Throws
/// std::invalid_argument when rule.max_packets is 0.
///
/// `resume` (optional) adds checkpoint/resume plumbing: with a progress
/// vector from an earlier (preempted) run the sweep continues from that
/// boundary, and the completed results are bit-identical to the
/// uninterrupted run's for every field except wall_seconds (which measures
/// this call, not the sum of attempts).
std::vector<BerResult> sweep_ber_adaptive(std::span<const LinkConfig> configs,
                                          const sim::StoppingRule& rule,
                                          const SweepOptions& opts = {},
                                          AdaptiveResume* resume = nullptr);

/// Adaptive single-point measurement: run packets until `rule` stops.
/// `threads` has SweepOptions::threads semantics.
BerResult run_ber_adaptive(const LinkConfig& cfg, const sim::StoppingRule& rule,
                           std::size_t threads = 0);

}  // namespace wlansim::core
