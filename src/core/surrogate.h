// Surrogate-backed BER evaluation: answer BER queries from a persistent
// calibration curve (sim/ber_surrogate.h) when one covers the query, and
// from the adaptive Monte-Carlo engine (core/parallel.h) when none does —
// backfilling the store so the next process never pays again.
//
// The split with sim/: sim owns the pure model (curves, interpolation,
// store); this layer owns everything that needs a WlanLink — computing the
// fingerprint key from a LinkConfig, driving sweep_ber_adaptive to fill
// curves, and mapping curve queries back into BerResult.
//
// Determinism: a miss runs sweep_ber_adaptive on exactly the missed
// configs. Each adaptive point is a pure function of (config, rule) —
// independent of which other points share the call (see the contract in
// core/parallel.h) — so the cold path is bit-identical to calling
// sweep_ber_adaptive directly on the full sweep.
#pragma once

#include <filesystem>
#include <functional>
#include <span>
#include <vector>

#include "core/parallel.h"
#include "sim/ber_surrogate.h"

namespace wlansim::core {

struct SurrogateOptions {
  /// Calibration store directory; empty = default_calibration_dir().
  std::filesystem::path store_dir;
  /// Which LinkConfig field the query sweeps (and the curve key's axis).
  sim::SurrogateAxis axis = sim::SurrogateAxis::kSnrDb;
  /// Stopping rule for calibration / fallback MC runs.
  sim::StoppingRule rule;
  /// Grid spacing and span padding [dB] for calibrate_ber_surrogate. Knots
  /// land on multiples of grid_step so repeated calibrations over
  /// overlapping ranges share knots.
  double grid_step = 1.0;
  double grid_pad = 1.0;
  /// Worker threads for MC runs (SweepOptions::threads semantics).
  std::size_t threads = 0;
  /// Optional persistent in-memory cache. Default null: each call builds a
  /// fresh store view, re-reading disk — so deleting a store file between
  /// calls is observed as a miss (and the refill reproduces the MC result
  /// bit-identically). Point at a long-lived sim::BerSurrogate
  /// to skip the disk read in tight loops that own their store's lifetime.
  sim::BerSurrogate* cache = nullptr;
};

/// The calibration store directory queries use when SurrogateOptions::
/// store_dir is empty: $WLANSIM_CALIB_DIR, else $XDG_CACHE_HOME/wlansim/
/// calib, else $HOME/.cache/wlansim/calib, else ./.wlansim-calib.
std::filesystem::path default_calibration_dir();

/// Calibrate (or extend) the curve for `base`'s fingerprint over
/// [x_lo, x_hi]: choose grid knots (multiples of opts.grid_step covering
/// the padded span), measure every knot not already stored via
/// sweep_ber_adaptive under opts.rule, merge, and persist. Returns the
/// resulting curve. Throws std::invalid_argument when `base` is not
/// fingerprintable (custom_rf, or axis kSnrDb with snr_db unset).
sim::CalibrationCurve calibrate_ber_surrogate(const LinkConfig& base,
                                              double x_lo, double x_hi,
                                              const SurrogateOptions& opts);

// ---------------------------------------------------------------------------
// Deduplicated, pooled link evaluation (the network-scale drop core)
// ---------------------------------------------------------------------------
//
// A multi-user drop asks for thousands-to-millions of link evaluations, but
// the queries collapse onto a few hundred distinct (front-end fingerprint,
// quantized-axis) points: stations share the base link configuration and
// differ only in geometry-derived SNR. sweep_ber_deduped exploits that:
// quantize, deduplicate, answer warm keys from the calibration store, run
// every cold key in ONE pooled sweep_ber_adaptive pass (so the wave
// scheduler's cross-point work stealing and TX-scene memoization keep
// sharing work across the whole miss list), backfill the store, and scatter
// results back to the full query list.
//
// At bin_width_db = 0 nothing is quantized, so sweep_ber_deduped is also the
// plain surrogate-backed sweep: covered points come back interpolated from
// the stored curve (from_surrogate set, model_ber/model_per filled, zero
// packet counters, ber_ci_rel the conservative calibrated CI), and missed
// points come back as adaptive-MC results that backfill the curve.

/// Snap `x` onto the quantization grid: the nearest multiple of
/// `bin_width` (std::round ties go away from zero, so the mapping is
/// symmetric around 0 and platform-independent). bin_width <= 0 disables
/// quantization and returns `x` unchanged.
double quantize_axis(double x, double bin_width);

/// A replacement for the pooled cold pass (see DedupOptions::cold_pass and
/// scenario::DropConfig::cold_pass). The contract: the function MUST return
/// results bit-identical to sweep_ber_adaptive(cfgs, rule, sweep_opts) for
/// every field except wall_seconds — each point is a pure function of
/// (config, rule), so a conforming implementation may checkpoint, resume,
/// or shard the pass across worker processes (service/shard.h) without
/// changing a single bit of any result. A hook that cannot finish
/// (preemption) should throw; the exception propagates out before any
/// store backfill.
using ColdPassFn = std::function<std::vector<BerResult>(
    std::span<const LinkConfig>, const sim::StoppingRule&,
    const SweepOptions&)>;

struct DedupOptions {
  /// Store / axis / rule / threads / cache. Cold keys always run in the
  /// pooled adaptive pass and backfill the store.
  SurrogateOptions surrogate;
  /// Axis quantization bin width [dB]: every query's axis value snaps to
  /// the nearest multiple before keying AND evaluation, so a key's result
  /// is exactly what a direct measurement of its representative config
  /// would produce. See docs/PERFORMANCE.md for choosing the width
  /// against the stopping rule's CI.
  double bin_width_db = 0.5;
  /// false: never touch the calibration store — every distinct key runs
  /// in the pooled pass and nothing is persisted (pure deduplication).
  bool use_store = true;
  /// Optional replacement for the pooled cold pass. Null (the default)
  /// runs sweep_ber_adaptive(cfgs, rule, sweep_opts) directly; a service
  /// layer substitutes a checkpointing wrapper (run_cold_pass_checkpointed)
  /// or a sharded coordinator fanning the pass out across worker processes
  /// (service/shard.h) here. The cold keys reach the hook in
  /// first-appearance order — the order a shard partition is defined
  /// against. See ColdPassFn for the bit-identity contract; the dedup
  /// layer backfills the store from the hook's results, and an exception
  /// (preemption) propagates out of sweep_ber_deduped before any backfill,
  /// leaving the store untouched.
  ColdPassFn cold_pass;
};

struct DedupStats {
  std::size_t queries = 0;   ///< configs in
  std::size_t distinct = 0;  ///< distinct (fingerprint, bin) keys
  std::size_t warm = 0;      ///< keys answered from a stored curve
  std::size_t cold = 0;      ///< keys measured in the pooled adaptive pass

  DedupStats& operator+=(const DedupStats& o) {
    queries += o.queries;
    distinct += o.distinct;
    warm += o.warm;
    cold += o.cold;
    return *this;
  }
};

/// Evaluate every config, deduplicated by (surrogate_fingerprint,
/// quantized-axis-bin). The configs may span multiple fingerprints (e.g.
/// stations with different quantized interferer levels); each fingerprint
/// group keys its own calibration curve. out[i] is the result of the
/// representative config of i's key: bit-identical to run_ber_adaptive on
/// that config when the key was cold, and the stored curve's answer when
/// warm (knot-exact for a backfilled bin). Axis values must be
/// finite; throws std::invalid_argument on a non-fingerprintable config.
std::vector<BerResult> sweep_ber_deduped(std::span<const LinkConfig> configs,
                                         const DedupOptions& opts,
                                         DedupStats* stats = nullptr);

}  // namespace wlansim::core
