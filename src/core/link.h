// End-to-end WLAN link: the verification testbench of the paper —
// "the model of the double conversion receiver ... is inserted in front of
// the DSP receiver part" of the IEEE 802.11a demo system (§4.1, Fig. 3).
//
// Each packet runs the chain
//
//   TX source (20 Msps) -> upsample -> [+ interferer] -> [+ AWGN]
//     -> RF front-end (system-level, co-simulated or custom) -> downsample
//     -> DSP receiver (sync, channel est., Viterbi)
//
// and reports bit errors and constellation quality. The chain runs one of
// two ways, bit-identical to each other: as an assembled dataflow graph
// (the SPW-style reference, and the only host for co-simulation and the
// interpreted mode), or on the direct path — the scene-slot wave of
// run_packet_wave, which every other packet goes through (see
// LinkConfig::packet_path).
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

/// TX scene slot for one (configuration, packet index) pair: the payload,
/// the pre-noise oversampled composite (TX waveform + impairments +
/// interferer), the RNG state at the noise-injection point, and the unit
/// noise normals. Everything stored here is independent of the noise level
/// (SNR / antenna noise density), so a BER sweep can build the scene once
/// at the first SNR point and replay it bit-identically at every other —
/// see WlanLink::run_packet_wave.
class TxScene {
 public:
  TxScene() = default;

  bool valid() const { return valid_; }
  std::uint64_t packet_index() const { return packet_index_; }

  /// Drop the cached scene (e.g. when the owning sweep changes packets).
  /// Clears the cached noise normals and front-end noise tapes too: their
  /// contents belong to the packet index the scene was built for, and every
  /// rebuild funnels through here, so they can never replay under the
  /// wrong packet.
  void reset() {
    valid_ = false;
    ref_points_valid_ = false;
    noise_units_.clear();
    lna_tape_.clear();
    flicker_tape_.clear();
  }

 private:
  friend class WlanLink;

  bool valid_ = false;
  std::uint64_t packet_index_ = 0;
  std::uint8_t scrambler_seed_ = 1;
  phy::Bytes payload_;
  dsp::CVec scene_;            ///< pre-noise oversampled composite (memo only)
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

  /// Run `count` consecutive packets [begin_index, begin_index + count)
  /// on the direct path: the one scene-slot wave every non-graph packet
  /// runs through (run_packet is its width-1 call). Each packet's TX scene
  /// is built (or replayed from `scenes`), then the lanes take AWGN, the RF
  /// front-end and decimation. With count >= 2 and a chain that has lane
  /// kernels (RfEngine::kNone, or a kSystemLevel front-end whose
  /// supports_lanes() holds) the lanes march together through a width-
  /// `count` SoA buffer (see dsp/kernels.h "Packet-lane (SoA) kernels");
  /// otherwise each packet runs alone through the scalar fused
  /// ChainExecutor. Lanes never mix arithmetically, so out[l] is
  /// bit-identical to the graph reference of the same index — the contract
  /// pinned by tests/core/test_packet_path.cpp and test_batch_wave.cpp.
  ///
  /// `scenes` is either null (no memoization) or `count` TxScene slots, one
  /// per lane: a slot valid for its packet index (built by an earlier call
  /// on a link whose config differs only in noise level) is replayed —
  /// TX side, channel build and interferer skipped, noise normals reused —
  /// and any other slot is (re)built. Lockstep waves also record the
  /// front-end's unit-normal noise tapes into the slots, so later sweep
  /// points replay those gaussians instead of re-deriving them.
  ///
  /// Returns false — computing nothing and leaving `out` untouched — only
  /// for graph configs (see use_direct_path) or a count outside
  /// [1, kLaneWidth]; the caller then runs run_packet per packet. A width-1
  /// call maintains last_rx_baseband()/last_rf_input() like run_packet;
  /// wider waves leave last_rf_input() alone.
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
  void run_scene_graph(dsp::CVec padded, dsp::Rng& rng);

  /// run_packet_wave plus the width-1 extras of run_packet_with_payload
  /// (caller PSDU, decoded PSDU out). `batch` may be null when count == 1.
  bool run_wave(std::uint64_t begin_index, std::size_t count,
                PacketBatch* batch, TxScene* scenes, PacketResult* out,
                std::span<const std::uint8_t> psdu, phy::Bytes* rx_psdu);
  /// One pass of `nl` lanes through TX scene, noise, RF and decimation:
  /// lockstep SoA lane kernels when nl >= 2, the scalar blocks and kernels
  /// (fused RF chain included) when nl == 1.
  /// Returns false (before any noise is drawn) when the lanes' scenes
  /// differ in length and cannot share a buffer.
  bool run_lanes(std::uint64_t begin_index, std::size_t nl,
                 PacketBatch* batch, TxScene* scenes, PacketResult* out,
                 std::span<const std::uint8_t> psdu, phy::Bytes* rx_psdu);
  /// TX half shared by the graph and the direct path: seeds the packet
  /// rng, draws the scrambler seed and payload (or takes `psdu`),
  /// modulates, applies fading, and pads into ws_.padded. Records the
  /// packet index, scrambler seed and payload in `scene` (reset first) and
  /// returns the packet rng.
  dsp::Rng build_tx(std::uint64_t packet_index,
                    std::span<const std::uint8_t> psdu, TxScene& scene);
  /// Upsample + TX impairments + interferer into ws_.scene_a. Returns the
  /// run length in base-rate units.
  std::size_t build_scene_prenoise(const dsp::CVec& padded, dsp::Rng& rng);
  /// Total channel noise power at the oversampled rate (antenna floor plus
  /// SNR-sized AWGN); 0 = no noise stage.
  double noise_power() const;
  /// The built-in front-end, constructed on first use; every packet resets
  /// and reseeds it before use.
  rf::DoubleConversionReceiver& frontend();
  /// DSP receiver + BER/EVM bookkeeping on last_rx_. The EVM reference is
  /// rebuilt from the scene's (scrambler seed, payload) and cached in it,
  /// so a memoized scene computes it once for every noise level.
  PacketResult receiver_epilogue(TxScene& scene, phy::Bytes* rx_psdu);

  LinkConfig cfg_;
  phy::Receiver rx_;
  dsp::CVec last_rx_;
  dsp::CVec last_rf_input_;
  Workspace ws_;
};

}  // namespace wlansim::core
