// Extraction settings shared by the black-box accuracy tests
// (test_blackbox.cpp) and the serial timing test (test_blackbox_timing.cpp).
#pragma once

#include "rf/blackbox.h"

namespace wlansim::rf {

/// A small, fast extraction grid: enough points for the accuracy gates,
/// cheap enough to run per test.
inline ExtractionConfig fast_extraction() {
  ExtractionConfig cfg;
  cfg.fir_taps = 41;
  cfg.num_env_points = 12;
  cfg.tone_samples = 2048;
  cfg.settle_samples = 2048;
  return cfg;
}

}  // namespace wlansim::rf
