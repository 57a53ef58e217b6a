// The anytime recorder and the best-so-far envelope computation.
#include "obs/anytime.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace pts::obs {
namespace {

TEST(AnytimeRecorder, RecordsInOrder) {
  AnytimeRecorder recorder;
  EXPECT_EQ(recorder.size(), 0U);
  recorder.record(0, 0.1, 10, 100.0);
  recorder.record(1, 0.2, 20, 90.0);
  const auto samples = recorder.snapshot();
  ASSERT_EQ(samples.size(), 2U);
  EXPECT_EQ(samples[0].source, 0);
  EXPECT_DOUBLE_EQ(samples[0].seconds, 0.1);
  EXPECT_EQ(samples[0].work_units, 10U);
  EXPECT_DOUBLE_EQ(samples[0].value, 100.0);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0U);
}

TEST(AnytimeRecorder, ConcurrentAppendsAllLand) {
  AnytimeRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kEach = 200;
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&recorder, t] {
        for (int i = 0; i < kEach; ++i) {
          recorder.record(t, 0.001 * i, static_cast<std::uint64_t>(i), 1.0 * i);
        }
      });
    }
  }
  EXPECT_EQ(recorder.size(), static_cast<std::size_t>(kThreads) * kEach);
}

}  // namespace
}  // namespace pts::obs
