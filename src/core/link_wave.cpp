// The direct packet path: the scene-slot wave every non-graph packet runs
// through, at any width in [1, kLaneWidth]. Each lane reproduces the graph
// reference bit for bit — lanes share loop control and memory traffic,
// never arithmetic — so the wave width is a pure throughput choice under
// the determinism contract of core/parallel.h.
//
// Per lane the sequence is: build_tx (rng(packet_seed) -> scrambler seed ->
// payload -> modulate -> [fading] -> pad) -> build_scene_prenoise (TX
// impairments + interferer, per-lane AoS since it is packet-specific and
// cheap), or a replay of both from a memoized TxScene slot; then fork 1 =
// AWGN normals, fork 2 = front-end reseed, RF front-end, phase-0
// decimation, DSP receiver epilogue.
#include <cmath>
#include <memory>
#include <utility>

#include "core/packet_batch.h"
#include "dsp/kernels.h"
#include "dsp/resample.h"
#include "rf/receiver_chain.h"

namespace wlansim::core {

bool WlanLink::run_packet_wave(std::uint64_t begin_index, std::size_t count,
                               PacketBatch& batch, TxScene* scenes,
                               PacketResult* out) {
  return run_wave(begin_index, count, &batch, scenes, out, {}, nullptr);
}

bool WlanLink::run_wave(std::uint64_t begin_index, std::size_t count,
                        PacketBatch* batch, TxScene* scenes,
                        PacketResult* out, std::span<const std::uint8_t> psdu,
                        phy::Bytes* rx_psdu) {
  if (count == 0 || count > dsp::kernels::kLaneWidth || !use_direct_path())
    return false;
  // RF stage selection: lockstep lanes need a lane kernel for every block,
  // and pay off only from width 2 — at width 1 the lane kernels measured no
  // faster than the scalar fused chain (docs/PERFORMANCE.md), which also
  // keeps WlanLink::run_ber an independent check of the lane kernels.
  const bool lanes = cfg_.rf_engine == RfEngine::kNone ||
                     (cfg_.rf_engine == RfEngine::kSystemLevel &&
                      frontend().supports_lanes());
  if (count >= 2 && lanes &&
      run_lanes(begin_index, count, batch, scenes, out, {}, nullptr))
    return true;
  for (std::size_t l = 0; l < count; ++l)
    run_lanes(begin_index + l, 1, batch,
              scenes != nullptr ? scenes + l : nullptr, out + l, psdu,
              rx_psdu);
  // The rf_input_probe tap: scene_a still holds the post-noise/pre-frontend
  // signal (the front-end wrote into scene_b), so hand the buffer over
  // instead of copying it. The workspace gets it back at the next assign.
  if (count == 1) std::swap(last_rf_input_, ws_.scene_a);
  return true;
}

bool WlanLink::run_lanes(std::uint64_t begin_index, std::size_t nl,
                         PacketBatch* batch, TxScene* scenes,
                         PacketResult* out, std::span<const std::uint8_t> psdu,
                         phy::Bytes* rx_psdu) {
  namespace kn = dsp::kernels;
  const bool memo = scenes != nullptr;
  // A solo lane works in place on ws_.scene_a with the scalar kernels, so
  // width-1 runs stay an independent check of the lane kernels.
  const bool solo = nl == 1;
  dsp::CVec& a = ws_.scene_a;
  if (!solo) {
    batch->local_scenes.resize(nl);
    batch->lane_rng.resize(nl);
  }
  // Unmemoized solo state lives on the stack, not in the workspace: sweep
  // workers cache up to 64 links each, and a slot plus rng is ~10 KB.
  TxScene solo_scene;
  dsp::Rng solo_rng;
  TxScene* sc[kn::kLaneWidth] = {};
  dsp::Rng* rng[kn::kLaneWidth] = {};
  std::size_t n = 0, base_units = 0;

  // --- Per-lane TX build or scene replay (packet-specific, sequential) ----
  for (std::size_t l = 0; l < nl; ++l) {
    const std::uint64_t idx = begin_index + l;
    sc[l] = memo ? &scenes[l] : solo ? &solo_scene : &batch->local_scenes[l];
    rng[l] = solo ? &solo_rng : &batch->lane_rng[l];
    TxScene& s = *sc[l];
    const dsp::CVec* src = &a;
    if (memo && s.valid_ && s.packet_index_ == idx) {
      // Replay: restore the packet rng at the noise fork.
      *rng[l] = s.rng_post_tx_;
      src = &s.scene_;
    } else {
      *rng[l] = build_tx(idx, psdu, s);
      s.base_units_ = build_scene_prenoise(ws_.padded, *rng[l]);
      if (memo) {
        s.valid_ = true;
        s.rng_post_tx_ = *rng[l];
        s.scene_.assign(a.begin(), a.end());
      }
    }

    if (l == 0) {
      n = src->size();
      base_units = s.base_units_;
      if (!solo) batch->soa.resize(2 * nl * n);
    } else if (src->size() != n || s.base_units_ != base_units) {
      // Same-config packets always match; a caller mixing configurations
      // gets the per-packet pass instead. Scenes built so far stay valid.
      return false;
    }
    if (solo) {
      if (src != &a) a.assign(src->begin(), src->end());
    } else {
      kn::lanes_pack(src->data(), n, nl, l, batch->soa.data());
    }
  }

  // --- Channel noise (fork 1 per lane) -----------------------------------
  const double n_total = noise_power();
  if (n_total > 0.0) {
    // Gather every lane's unit normals first (cached in the scene slot on
    // the memo path, else in a per-lane segment of the scratch), then add
    // them all in one fused row-major pass over the lane buffer.
    const double* units[kn::kLaneWidth] = {};
    if (!memo) ws_.noise_scratch.resize(2 * n * nl);
    for (std::size_t l = 0; l < nl; ++l) {
      dsp::Rng nrng = rng[l]->fork();
      if (memo) {
        dsp::RVec& cached = sc[l]->noise_units_;
        if (cached.empty()) {
          cached.resize(2 * n);
          nrng.fill_gaussian(cached.data(), cached.size());
        }
        units[l] = cached.data();
      } else {
        double* seg = ws_.noise_scratch.data() + l * 2 * n;
        nrng.fill_gaussian(seg, 2 * n);
        units[l] = seg;
      }
    }
    const double s = std::sqrt(n_total / 2.0);
    if (solo)
      kn::add_scaled_pairs(a.data(), n, s, units[0]);
    else
      kn::lanes_add_scaled_pairs_multi(batch->soa.data(), n, nl, s, units);
  }

  // --- RF front-end (fork 2 per lane) -------------------------------------
  if (cfg_.rf_engine == RfEngine::kSystemLevel && !solo) {
    // All lanes through the fused lane tile loop.
    rf::DoubleConversionReceiver& fe = frontend();
    fe.reset();
    fe.begin_lanes(nl);
    for (std::size_t l = 0; l < nl; ++l) {
      fe.reseed_lanes(l, rng[l]->fork());
      dsp::RVec* lna_tape = nullptr;
      dsp::RVec* flicker_tape = nullptr;
      if (memo && n_total > 0.0) {
        // A tape is usable only when empty (record) or complete (replay);
        // anything else would desync the lane rng stream mid-buffer, so
        // draw fresh instead. TxScene::reset() clears tapes on rebuild,
        // which makes a same-length stale tape impossible. Without channel
        // noise the front-end takes fork 1 instead of fork 2, so a slot
        // shared with noisy configs must neither record nor replay there.
        TxScene& s = *sc[l];
        if (s.lna_tape_.empty() || s.lna_tape_.size() == 2 * n)
          lna_tape = &s.lna_tape_;
        if (s.flicker_tape_.empty() || s.flicker_tape_.size() == 2 * n)
          flicker_tape = &s.flicker_tape_;
      }
      fe.set_lane_tapes(l, lna_tape, flicker_tape);
    }
    fe.process_tile_lanes(batch->soa.data(), n, nl);
  } else if (cfg_.rf_engine != RfEngine::kNone) {
    // One lane through the scalar fused ChainExecutor: the whole scene
    // streams through the front-end cascade in L1-sized tiles
    // (cfg_.rf.tile_size, 0 = auto), bit-identical to the graph's 512-chunk
    // execution by the tile-continuity contract. Caller-supplied (kCustom)
    // blocks are constructed per packet, exactly like the graph's
    // rf_frontend_custom node (the factory owns any state reset policy).
    std::unique_ptr<rf::RfBlock> custom;
    rf::RfBlock* fe = nullptr;
    if (cfg_.rf_engine == RfEngine::kSystemLevel) {
      rf::DoubleConversionReceiver& dcr = frontend();
      dcr.reset();
      dcr.reseed(rng[0]->fork());
      fe = &dcr;
    } else {
      custom = cfg_.custom_rf(rng[0]->fork());
      fe = custom.get();
    }
    fe->process_into(a, ws_.scene_b);
  }

  // --- Phase-0 decimation + DSP receiver, one lane at a time -------------
  const std::size_t os = cfg_.oversample;
  const bool ideal = cfg_.rf_engine == RfEngine::kNone;
  if (ideal && os > 1 && !ws_.down_filt)
    ws_.down_filt = std::make_unique<dsp::FirFilter>(dsp::resampling_taps(os));
  const dsp::CVec& rx_over = ideal ? a : ws_.scene_b;  // solo lane output
  for (std::size_t l = 0; l < nl; ++l) {
    last_rx_.resize(os > 1 ? base_units : n);
    if (solo && ideal && os > 1) {
      // DownsampleNode: the anti-alias lowpass delay line advances on every
      // sample but only the kept phase-0 outputs need their dot product.
      ws_.down_filt->reset();
      ws_.down_filt->process_decim_into(rx_over, os, last_rx_);
    } else if (solo) {
      // DecimateNode: the ADC samples the analog output raw.
      for (std::size_t i = 0, o = 0; i < n; i += os) last_rx_[o++] = rx_over[i];
    } else if (ideal && os > 1) {
      const dsp::RVec& taps = ws_.down_filt->taps();
      kn::lanes_fir_decim(batch->soa.data(), n, nl, l, taps.data(),
                          taps.size(), os, last_rx_.data());
    } else {
      kn::lanes_unpack_decim(batch->soa.data(), n, nl, l, os, last_rx_.data());
    }
    out[l] = receiver_epilogue(*sc[l], rx_psdu);
  }
  return true;
}

}  // namespace wlansim::core
