// End-to-end WLAN link: the verification testbench of the paper —
// "the model of the double conversion receiver ... is inserted in front of
// the DSP receiver part" of the IEEE 802.11a demo system (§4.1, Fig. 3).
//
// Each packet run assembles a dataflow graph
//
//   TX source (20 Msps) -> upsample -> [+ interferer] -> [+ AWGN]
//     -> RF front-end (system-level or co-simulated) -> downsample
//     -> DSP receiver (sync, channel est., Viterbi)
//
// and reports bit errors and constellation quality.
#pragma once

#include <limits>
#include <memory>

#include "core/linkconfig.h"
#include "dsp/fir.h"
#include "dsp/rng.h"
#include "phy80211a/measure.h"
#include "phy80211a/receiver.h"
#include "phy80211a/transmitter.h"

namespace wlansim::core {

/// Memoized TX scene for one (configuration, packet index) pair: the
/// payload, the pre-noise oversampled composite (TX waveform + impairments
/// + interferer), the RNG state at the noise-injection point, and the unit
/// noise normals. Everything stored here is independent of the noise level
/// (SNR / antenna noise density), so a BER sweep can build the scene once
/// at the first SNR point and replay it bit-identically at every other —
/// see WlanLink::run_packet_memo.
class TxScene {
 public:
  TxScene() = default;

  bool valid() const { return valid_; }
  std::uint64_t packet_index() const { return packet_index_; }

  /// Drop the cached scene (e.g. when the owning sweep changes packets).
  /// Clears the front-end noise tapes too: their contents belong to the
  /// packet index the scene was built for, and every rebuild funnels
  /// through here, so a tape can never replay under the wrong packet.
  void reset() {
    valid_ = false;
    ref_points_valid_ = false;
    lna_tape_.clear();
    flicker_tape_.clear();
  }

 private:
  friend class WlanLink;

  bool valid_ = false;
  std::uint64_t packet_index_ = 0;
  std::uint8_t scrambler_seed_ = 1;
  phy::Bytes payload_;
  dsp::CVec scene_;            ///< pre-noise oversampled composite
  std::size_t base_units_ = 0; ///< scene run length in base-rate units
  dsp::Rng rng_post_tx_{0};    ///< packet RNG state at the noise fork
  dsp::RVec noise_units_;      ///< cached unit normals (2 per scene sample)
  bool ref_points_valid_ = false;
  std::vector<dsp::CVec> ref_points_;  ///< TX constellation (EVM reference)
  /// Front-end unit-normal tapes recorded by the lane path (see
  /// rf/lane_tape.h): like noise_units_, pure functions of the packet
  /// index, so later sweep points replay instead of re-deriving gaussians.
  dsp::RVec lna_tape_;
  dsp::RVec flicker_tape_;
};

/// Outcome of one packet through the link.
struct PacketResult {
  bool decoded = false;       ///< header decoded and payload length matched
  std::size_t bits = 0;       ///< payload bits transmitted
  std::size_t bit_errors = 0; ///< payload bit errors (bits/2 when undecoded)
  double evm_rms = 0.0;       ///< EVM vs. the transmitted constellation
  double cfo_norm = 0.0;      ///< receiver CFO estimate
};

/// Confidence multiplier WlanLink::run_ber reports BER intervals at (95 %,
/// the StoppingRule default); sweep_ber_adaptive uses its rule's
/// confidence_z.
inline constexpr double kDefaultConfidenceZ = 1.96;

/// The per-packet RNG seed: a splitmix64-style mix of the configuration
/// seed and the packet counter. Every random draw of packet i — scrambler
/// seed, payload, fading, impairment and noise streams — descends from this
/// one value, so a packet's result is a pure function of (config, index)
/// and is identical no matter which thread runs it, in which order, or how
/// many packets surround it. This is the contract every parallel and
/// adaptive measurement engine in core/parallel relies on.
std::uint64_t packet_seed(std::uint64_t seed, std::uint64_t packet_index);

/// Aggregate of a multi-packet measurement.
struct BerResult {
  std::size_t packets = 0;
  std::size_t packets_lost = 0;    ///< header/sync failures (nothing decoded)
  std::size_t packet_errors = 0;   ///< lost or decoded with bit errors
  std::size_t bits = 0;
  std::size_t bit_errors = 0;
  double evm_rms_avg = 0.0;

  // Streaming statistics (adaptive Monte-Carlo engine; see core/parallel.h).
  /// Wilson relative CI half-width of the BER estimate at the reporting
  /// confidence (a pure function of bit_errors/bits, so it is as
  /// deterministic as the counters); +inf until the first bit error.
  double ber_ci_rel = std::numeric_limits<double>::infinity();
  /// Wall time from the measurement's start until this point's stopping
  /// decision. Only the adaptive engines fill it; 0 elsewhere.
  double wall_seconds = 0.0;
  /// True when the stopping rule was met before the packet cap (the cap and
  /// fixed-budget runs report false).
  bool converged = false;

  // Surrogate-model results (core/surrogate.h). When a point is answered
  // from a calibration curve instead of Monte-Carlo packets, the model's
  // interpolated rates land here (the counters above stay zero — there were
  // no packets), ber_ci_rel carries the calibrated Wilson CI of the
  // bracketing knots, and from_surrogate is set. -1 = unset.
  double model_ber = -1.0;
  double model_per = -1.0;
  bool from_surrogate = false;

  double ber() const {
    if (model_ber >= 0.0) return model_ber;
    return bits ? static_cast<double>(bit_errors) / static_cast<double>(bits)
                : 0.0;
  }
  double per() const {
    if (model_per >= 0.0) return model_per;
    return packets ? static_cast<double>(packet_errors) /
                         static_cast<double>(packets)
                   : 0.0;
  }
};

struct PacketBatch;  // core/packet_batch.h

class WlanLink {
 public:
  explicit WlanLink(LinkConfig cfg);

  /// Run one packet; `packet_index` seeds the per-packet randomness so
  /// runs are reproducible and sweep points can share random numbers.
  PacketResult run_packet(std::uint64_t packet_index);

  /// Run one packet carrying a caller-supplied PSDU (e.g. a framed MPDU
  /// with FCS). The payload length overrides cfg.psdu_bytes for this
  /// packet; channel/noise randomness still derives from `packet_index`.
  /// On success `rx_psdu` receives the decoded PSDU bytes.
  PacketResult run_packet_with_payload(std::span<const std::uint8_t> psdu,
                                       std::uint64_t packet_index,
                                       phy::Bytes* rx_psdu = nullptr);

  /// Run one packet, caching or replaying its noise-independent TX scene
  /// in `scene`. When `scene` is valid for this packet index (built by an
  /// earlier call on a link whose config differs only in noise level), the
  /// TX side, channel build, and interferer are replayed bit-identically
  /// instead of recomputed. Otherwise the packet runs in full and `scene`
  /// is (re)built. Configurations the direct packet path cannot serve run
  /// unmemoized and leave `scene` invalid.
  PacketResult run_packet_memo(std::uint64_t packet_index, TxScene& scene);

  /// Run `count` consecutive packets [begin_index, begin_index + count) as
  /// one lockstep lane wave: each packet's TX scene is built (or replayed
  /// from `scenes`) exactly as run_packet_memo would, then all lanes march
  /// through AWGN, the RF front-end, and decimation together on a width-
  /// `count` SoA buffer (see dsp/kernels.h "Packet-lane (SoA) kernels").
  /// Lanes never mix arithmetically, so out[l] is bit-identical to
  /// run_packet / run_packet_memo of the same index — the contract pinned
  /// by tests/core/test_batch_wave.cpp.
  ///
  /// `scenes` is either null (no memoization; batch-local scratch scenes
  /// are used) or `count` TxScene slots, one per lane, with the same
  /// build-or-replay semantics as run_packet_memo. On the memoized path
  /// the wave additionally records the front-end's unit-normal noise tapes
  /// into the scenes so later sweep points replay the gaussians instead of
  /// re-deriving them.
  ///
  /// Returns false — computing nothing and leaving `out` untouched — when
  /// the configuration cannot run in lockstep (graph path, co-simulation,
  /// custom RF, phase noise, non-Rapp-p2 LNA, count outside [2, W]); the
  /// caller then falls back to the scalar per-packet path. Scenes already
  /// (re)built before a mid-wave bailout stay valid for that fallback.
  /// The wave does not maintain last_rx_baseband()/last_rf_input() (debug
  /// probes of the scalar path).
  bool run_packet_wave(std::uint64_t begin_index, std::size_t count,
                       PacketBatch& batch, TxScene* scenes, PacketResult* out);

  /// Run `num_packets` packets and aggregate.
  BerResult run_ber(std::size_t num_packets);

  /// The received baseband (20 Msps, post-RF) of the last packet — for
  /// spectrum plots and debugging.
  const dsp::CVec& last_rx_baseband() const { return last_rx_; }

  const LinkConfig& config() const { return cfg_; }

  /// The composite oversampled waveform (wanted + interferer + noise) the
  /// RF front-end saw on the last packet — input of Fig. 4's spectrum.
  const dsp::CVec& last_rf_input() const { return last_rf_input_; }

 private:
  /// Per-link scratch state for the direct (allocation-free) packet path.
  /// Buffers keep their capacity across packets; blocks are constructed
  /// once and re-randomized per packet (reset + reseed), which is exactly
  /// equivalent to the per-packet construction the graph path performs.
  /// Every buffer is invalidated by the next run_packet call.
  struct Workspace {
    dsp::CVec padded;           ///< 20 Msps frame with lead/tail padding
    dsp::CVec scene_a, scene_b; ///< oversampled ping-pong buffers
    dsp::CVec jam;              ///< interferer waveform
    dsp::RVec up_taps;          ///< TX interpolation taps (polyphase kernel)
    dsp::RVec noise_scratch;    ///< bulk unit normals for the AWGN fill
    std::unique_ptr<dsp::FirFilter> down_filt;  ///< ideal RX decimation
    std::unique_ptr<rf::Amplifier> tx_pa;
    std::unique_ptr<rf::Mixer> tx_upconverter;
    std::unique_ptr<rf::DoubleConversionReceiver> frontend;
  };

  bool use_direct_path() const;
  void run_scene_direct(const dsp::CVec& padded, dsp::Rng& rng);
  void run_scene_graph(dsp::CVec padded, dsp::Rng& rng);

  PacketResult run_packet_impl(std::span<const std::uint8_t> psdu,
                               std::uint64_t packet_index, phy::Bytes* rx_psdu,
                               TxScene* scene);
  /// First half of the direct scene: upsample + TX impairments + interferer
  /// into ws_.scene_a. Returns the run length in base-rate units.
  std::size_t build_scene_prenoise(const dsp::CVec& padded, dsp::Rng& rng);
  /// Second half: channel noise, RF front-end, downsample (ws_.scene_a ->
  /// last_rx_ / last_rf_input_). `noise_units` selects the noise mode:
  /// nullptr draws directly from the rng fork; empty caches the unit
  /// normals while applying them; non-empty replays the cached normals
  /// (advancing the rng fork identically). All three are bit-identical.
  void finish_scene_direct(std::size_t base_units, dsp::Rng& rng,
                           dsp::RVec* noise_units);
  /// DSP receiver + BER/EVM bookkeeping on last_rx_. `tx`/`frame` are the
  /// live transmitter when the packet was just built (null on scene
  /// replay, where the EVM reference is rebuilt from `scene`).
  PacketResult receiver_epilogue(const phy::Bytes& payload,
                                 const phy::Transmitter* tx,
                                 const phy::Frame* frame, TxScene* scene,
                                 phy::Bytes* rx_psdu);

  LinkConfig cfg_;
  phy::Transmitter tx_;
  phy::Receiver rx_;
  dsp::CVec last_rx_;
  dsp::CVec last_rf_input_;
  Workspace ws_;
};

}  // namespace wlansim::core
