// Wall-clock comparison of the J&K black-box surrogate against the full
// receiver chain it replaces (paper section 4, option two). Its own
// executable, registered RUN_SERIAL, so no concurrently running test loads
// the CPU while it times.
#include <algorithm>
#include <chrono>
#include <limits>

#include <gtest/gtest.h>

#include "rf/blackbox.h"
#include "rf/receiver_chain.h"

#include "blackbox_test_config.h"

namespace wlansim::rf {
namespace {

TEST(Blackbox, SurrogateIsFasterThanChain) {
  // Time against the surrogate's actual replacement target: the default
  // (noise-on, AGC-adapting, ADC-quantizing) front-end that system-level
  // runs instantiate.  The static_chain() of test_blackbox.cpp exists to
  // make the *accuracy* tests deterministic; it strips out exactly the
  // per-sample work (noise synthesis, gain adaptation) that the surrogate
  // subsumes into a single equivalent output noise source, so it is not the
  // speed baseline the J&K extraction is claimed against.  Extraction here
  // runs on the same noisy DUT, so the surrogate pays for its own noise
  // replay too.
  DoubleConversionReceiver chain(DoubleConversionConfig{}, dsp::Rng(1));
  const BlackBoxData data = extract_blackbox(chain, fast_extraction());
  BlackBoxModel model(data, dsp::Rng(2));

  dsp::Rng rng(5);
  dsp::CVec in(1 << 14);
  for (auto& v : in) v = 1e-4 * rng.cgaussian(1.0);

  // Best-of-3: a single-shot measurement flips under scheduler noise once
  // the optimized chain is only ~1.4x slower than the surrogate.
  const auto time_of = [&](RfBlock& b) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      b.reset();
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < 5; ++i) b.process(in);
      best = std::min(
          best, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count());
    }
    return best;
  };
  const double t_chain = time_of(chain);
  const double t_model = time_of(model);
  EXPECT_LT(t_model, t_chain);  // the point of extraction: speed
}

}  // namespace
}  // namespace wlansim::rf
