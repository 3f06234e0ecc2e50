#ifndef FSDM_PERFBENCH_CALIBRATION_H_
#define FSDM_PERFBENCH_CALIBRATION_H_

// Host-speed calibration. On a shared host the CPU time an operation takes
// moves with the speed the host gives the process (frequency, neighbours on
// the same core and cache), run to run by 10-20%. A calibration slice is a
// fixed amount of CPU and cache work that calls nothing in the engine and
// allocates nothing, so its CPU time moves only with that speed. Slices run
// between operations, never inside a timed one, and the benchmark scales
// its CPU times by kReferenceSliceUs over the run's median slice.

#include <chrono>
#include <cstdint>
#include <vector>

#include "perfbench.h"

namespace fsdm::perfbench {

/// The median slice CPU time on the host the bounds were set on (4-vCPU
/// Xeon virtual machine on a shared host); it only fixes the scale the
/// reported figures read in.
inline constexpr double kReferenceSliceUs = 700.0;

class Calibrator {
 public:
  Calibrator();

  /// Runs one slice when at least 20 ms have passed since the last.
  void Maybe();
  /// Runs one slice now.
  void Force();

  size_t slices() const { return slices_.size(); }
  /// Median slice CPU time over the run, in microseconds.
  double MedianUs() const { return slices_.Median(); }
  /// What a CPU time measured in this run is multiplied by.
  double Scale() const;
  /// Time spent in slices so far, so that a span that contains slices can
  /// leave them out.
  const Elapsed& spent() const { return spent_; }

 private:
  std::chrono::steady_clock::time_point last_;
  std::vector<uint32_t> table_;
  std::vector<uint32_t> pristine_;
  std::vector<uint32_t> work_;
  uint64_t sink_ = 0;
  Samples slices_;
  Elapsed spent_;
};

}  // namespace fsdm::perfbench

#endif  // FSDM_PERFBENCH_CALIBRATION_H_
