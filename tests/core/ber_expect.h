// Bit-identity check shared by the BER engine tests: two BerResults must
// agree on every field except wall_seconds, which times the call rather
// than the measurement. Floating-point fields compare exactly.
#pragma once

#include <gtest/gtest.h>

#include "core/link.h"

namespace wlansim::core {

inline void expect_same_ber(const BerResult& a, const BerResult& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.evm_rms_avg, b.evm_rms_avg);
  EXPECT_EQ(a.ber_ci_rel, b.ber_ci_rel);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.model_ber, b.model_ber);
  EXPECT_EQ(a.model_per, b.model_per);
  EXPECT_EQ(a.from_surrogate, b.from_surrogate);
}

}  // namespace wlansim::core
