#include "calibration.h"

#include <algorithm>

namespace fsdm::perfbench {

namespace {

using Clock = std::chrono::steady_clock;
constexpr auto kInterval = std::chrono::milliseconds(20);
constexpr size_t kTableWords = size_t{1} << 16;  // 256 KiB
constexpr size_t kSortWords = 2048;
constexpr uint32_t kLoads = 15000;

}  // namespace

Calibrator::Calibrator()
    : table_(kTableWords), pristine_(kSortWords), work_(kSortWords) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(x >> 32);
  };
  for (uint32_t& w : table_) w = next();
  for (uint32_t& w : pristine_) w = next();
  last_ = Clock::now() - kInterval;
}

void Calibrator::Maybe() {
  if (Clock::now() - last_ >= kInterval) Force();
}

void Calibrator::Force() {
  // Dependent loads over a table the engine's work evicts between slices,
  // then a sort of a fixed array.
  const Stopwatch span;
  const double t0 = ThreadCpuUs();
  uint32_t h = 1;
  for (uint32_t i = 0; i < kLoads; ++i) {
    h = table_[(h ^ i) & (kTableWords - 1)] * 2654435761u + i;
  }
  std::copy(pristine_.begin(), pristine_.end(), work_.begin());
  std::sort(work_.begin(), work_.end());
  sink_ += h + work_[kSortWords / 2];
  slices_.Add(ThreadCpuUs() - t0);
  const Elapsed e = span.Stop();
  spent_.cpu_s += e.cpu_s;
  spent_.wall_s += e.wall_s;
  last_ = Clock::now();
}

double Calibrator::Scale() const {
  const double median = MedianUs();
  return median > 0 ? kReferenceSliceUs / median : 1.0;
}

}  // namespace fsdm::perfbench
