#ifndef FSDM_PERFBENCH_PERFBENCH_H_
#define FSDM_PERFBENCH_PERFBENCH_H_

// Shared types of the end-to-end benchmark: run options, latency samples
// and the ledger one run fills.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fsdm::perfbench {

/// The five router shapes every workload reads with (see README.md).
enum Shape { kPoint = 0, kExists, kConj, kImcRange, kFull, kShapeCount };

const char* ShapeName(int shape);
/// The access path a shape exists to exercise; the traced run reports the
/// share of shard-level routing decisions that picked it.
const char* ShapePath(int shape);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  /// Small inputs and a single round: the self-test.
  bool tiny = false;
  /// Corrupts the first expected result, so a correct engine must fail.
  bool perturb = false;
};

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  /// Nearest-rank percentile, p in (0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Mean() const;
  size_t size() const { return v_.size(); }

 private:
  std::vector<double> v_;
};

/// CPU time of the calling thread, and of the whole process (every
/// thread, drain workers included), in microseconds.
double ThreadCpuUs();
double ProcessCpuUs();

/// What one timed call cost: process CPU time and wall time, in seconds.
struct Elapsed {
  double cpu_s = 0;
  double wall_s = 0;
};

/// Reads both clocks when made; Stop() gives the time since.
class Stopwatch {
 public:
  Stopwatch();
  Elapsed Stop() const;

 private:
  double cpu0_us_;
  double wall0_us_;
};

/// One timed quantity, kept as CPU time (which the end-to-end metrics
/// report) and as wall time (which the log prints beside it).
struct Timed {
  Samples cpu;
  Samples wall;
  /// `unit` converts seconds into the quantity's unit (1 or 1e6).
  void Add(const Elapsed& e, double unit) {
    cpu.Add(e.cpu_s * unit);
    wall.Add(e.wall_s * unit);
  }
};

struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Everything one run measures. Per-round figures are kept one value per
/// round and reported as medians; latencies are pooled over all rounds;
/// throughput is kept one value per timed pass and reported as the median.
struct Ledger {
  Timed setup_s;
  Timed recovery_s;
  Samples resident_ratio;
  Samples wal_ratio;
  uint64_t timed_ops = 0;
  Elapsed timed;       // summed over the timed passes
  Samples cpu_rate;    // operations per CPU second of each timed pass
  Samples wall_rate;   // operations per wall second of each timed pass
  Timed write_us;
  Timed read_us[kShapeCount];
  std::map<std::string, OpTally> ops;
  uint64_t problem_count = 0;
  std::vector<std::string> problems;  // the first few, for the log
  int rounds = 0;
  // Host-speed calibration of the run (calibration.h).
  size_t slices = 0;
  double slice_us = 0;
  double scale = 1;

  // Traced run only.
  std::map<std::string, Samples> layer;
  std::map<std::string, uint64_t> paths[kShapeCount];  // path -> decisions

  OpTally& Op(const std::string& kind) { return ops[kind]; }
  void TimedPass(uint64_t ops, const Elapsed& e);
  void Problem(std::string what);
};

/// Runs whole rounds of `options.workload` until `options.seconds` have
/// passed (one round when tiny). False for an unknown workload name.
bool RunWorkload(const Options& options, Ledger* ledger);

}  // namespace fsdm::perfbench

#endif  // FSDM_PERFBENCH_PERFBENCH_H_
