// Checkpoint/resume for the service's pooled cold passes.
//
// The adaptive engine's state at any 8-packet quantum boundary compresses
// to one SweepPointProgress per point (core/parallel.h): counter-based
// seeding makes the evaluated-prefix length the complete RNG state, and
// the streaming accumulators are the exact packet-order reduction. This
// module persists that vector — atomically, tmp+rename, one file per job
// key — so a killed daemon resumes a long study without redoing converged
// points, and completes it bit-identically to an uninterrupted run.
//
// A job key is the rule plus every config's link fingerprint in order, so
// a checkpoint can never resume under a different question: a changed
// rule, config, or point order produces a different key (and file), and a
// stale file for the old key is simply never read again. Corrupt or
// truncated files load as nullopt — a clean cold start, never an error.
#pragma once

#include <atomic>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.h"

namespace wlansim::service {

/// Thrown by run_cold_pass_checkpointed when the stop flag preempted the
/// sweep. The checkpoint file holds the progress; resubmitting the same
/// job (same key) resumes from it.
class PreemptedError : public std::runtime_error {
 public:
  explicit PreemptedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The content address of a cold pass: stopping rule (bit-exact hexfloat
/// serialization) + every config's link fingerprint, in order. Empty when
/// any config is not fingerprintable (such a pass cannot be checkpointed).
std::string cold_pass_key(std::span<const core::LinkConfig> configs,
                          const sim::StoppingRule& rule);

/// `<dir>/<fnv1a64(key)>.ckpt`.
std::filesystem::path checkpoint_path(const std::filesystem::path& dir,
                                      std::string_view key);

/// Serialized checkpoint text (exposed for tests; the file payload).
/// Embeds the writer's PID and the hex-encoded full key.
std::string serialize_checkpoint(
    std::string_view key, std::span<const core::SweepPointProgress> progress);

/// Parse a checkpoint; nullopt on any malformed, truncated, or
/// wrong-key input. `writer_pid` (optional) receives the recorded PID —
/// informational only; resume is valid from any process.
std::optional<std::vector<core::SweepPointProgress>> parse_checkpoint(
    std::string_view text, std::string_view expected_key,
    long* writer_pid = nullptr);

/// Atomic tmp+rename write; false on I/O failure (checkpointing is best
/// effort — a failed save costs redone work, never correctness).
bool save_checkpoint(const std::filesystem::path& dir, std::string_view key,
                     std::span<const core::SweepPointProgress> progress);

/// Load the checkpoint for `key`; nullopt when absent/corrupt/mismatched
/// or when the point count differs from `expect_points`.
std::optional<std::vector<core::SweepPointProgress>> load_checkpoint(
    const std::filesystem::path& dir, std::string_view key,
    std::size_t expect_points, long* writer_pid = nullptr);

void remove_checkpoint(const std::filesystem::path& dir, std::string_view key);

/// core::sweep_ber_adaptive from `resume`. A resume state the engine rejects
/// (std::invalid_argument: e.g. saved under another cap) counts as a corrupt
/// checkpoint: progress cleared, cold re-run with the same on_wave, and
/// `*cold_restarted` (optional) set.
std::vector<core::BerResult> sweep_resume_or_cold(
    std::span<const core::LinkConfig> configs, const sim::StoppingRule& rule,
    const core::SweepOptions& opts, core::AdaptiveResume& resume,
    bool* cold_restarted = nullptr);

/// sweep_ber_adaptive with checkpointing: loads any checkpoint for this
/// (configs, rule) key, resumes from it, saves progress at every
/// `checkpoint_every_waves`-th wave boundary, and removes the file on
/// completion. When `stop` becomes true the sweep preempts at the next
/// boundary, the checkpoint is saved, and PreemptedError is thrown — the
/// caller (the scheduler's cold-pass hook) must NOT backfill any store
/// from a preempted pass. Results are bit-identical to
/// core::sweep_ber_adaptive(configs, rule, opts) in every field except
/// wall_seconds.
std::vector<core::BerResult> run_cold_pass_checkpointed(
    const std::filesystem::path& dir,
    std::span<const core::LinkConfig> configs, const sim::StoppingRule& rule,
    const core::SweepOptions& opts, const std::atomic<bool>* stop = nullptr,
    std::size_t checkpoint_every_waves = 1);

}  // namespace wlansim::service
