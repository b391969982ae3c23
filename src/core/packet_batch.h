// Reusable workspace for WlanLink::run_packet_wave: W same-configuration
// packets carried as SoA lanes (sample-major, packet-minor) through the
// noise + RF + decimation half of the link. Only lockstep waves (width
// >= 2) touch it; width-1 packets run in the link's own workspace. Allocate
// one per measurement thread and reuse it across waves — every buffer keeps
// its capacity.
#pragma once

#include <vector>

#include "core/link.h"
#include "dsp/rng.h"
#include "dsp/types.h"

namespace wlansim::core {

struct PacketBatch {
  /// The lane buffer: 2 * nl * n doubles, sample row i holding the lane
  /// re rails then the lane im rails (see dsp/kernels.h lane layout).
  dsp::RVec soa;
  /// Per-lane scratch scenes for unmemoized waves (rebuilt every wave, so
  /// a stale scene can never replay under a different sweep point).
  std::vector<TxScene> local_scenes;
  /// Per-lane packet RNG state at the noise fork (each lane's rng right
  /// after build_scene_prenoise).
  std::vector<dsp::Rng> lane_rng;
};

}  // namespace wlansim::core
