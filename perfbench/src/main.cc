// fsdm_perfbench: the end-to-end benchmark program. run.py builds and runs
// it; see README.md for the workloads and metrics.
//
//   fsdm_perfbench --workload <ingest_nobench|query_nobench|ycsb_kv>
//                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//                  [--tiny] [--perturb]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "rdbms/parallel.h"
#include "stats/operator_costs.h"

namespace fsdm::perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Drain workers for routed reads: the client thread plus the workers stay
// within the CPU count, with one CPU left for the kernel's writeback and
// fsync work. A fixed count keeps the 4-shard fan-out the same on every
// run of a machine.
size_t WorkerCount() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return cpus >= 3 ? 2 : 1;
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

// Times are process CPU time (drain workers included), scaled by the
// run's host-speed calibration (calibration.h); throughput is operations
// per scaled CPU second. The log prints the same figures in wall time.
std::vector<Metric> EndToEnd(const Ledger& L) {
  const double k = L.scale;
  std::vector<Metric> m = {
      {"setup_s", L.setup_s.cpu.Median() * k, "s"},
      {"ops_per_cpu_s", L.cpu_rate.Median() / k, "1/s"},
      {"write_cpu_p50_us", L.write_us.cpu.Median() * k, "us"},
      {"point_read_cpu_p50_us", L.read_us[kPoint].cpu.Median() * k, "us"},
      {"path_read_cpu_p50_us", L.read_us[kExists].cpu.Median() * k, "us"},
      {"intersect_read_cpu_p50_us", L.read_us[kConj].cpu.Median() * k, "us"},
      {"imc_scan_cpu_p50_us", L.read_us[kImcRange].cpu.Median() * k, "us"},
      {"full_scan_cpu_p50_us", L.read_us[kFull].cpu.Median() * k, "us"},
      {"recovery_cpu_s", L.recovery_s.cpu.Median() * k, "s"},
      {"resident_bytes_per_user_byte", L.resident_ratio.Median(), "B/B"},
      {"wal_bytes_per_user_byte", L.wal_ratio.Median(), "B/B"},
  };
  return m;
}

// The wall-time figures of the same operations, unscaled: what a caller
// waited, host stalls and fsync waits included. Printed, not reported.
void PrintWall(const Ledger& L) {
  std::printf("wall setup %.4f s, ops %.1f /s, write p50 %.1f us, p99 %.1f us, "
              "recovery %.4f s\n",
              L.setup_s.wall.Median(), L.wall_rate.Median(),
              L.write_us.wall.Median(), L.write_us.wall.Percentile(99),
              L.recovery_s.wall.Median());
  std::printf("wall read p50 us:");
  for (int s = 0; s < kShapeCount; ++s) {
    std::printf(" %s %.1f", ShapeName(s), L.read_us[s].wall.Median());
  }
  std::printf("\n");
}

const char* LayerUnit(const std::string& metric) {
  // A per-shape metric carries its unit before the ".<shape>" suffix.
  std::string name = metric;
  for (int s = 0; s < kShapeCount; ++s) {
    const std::string suffix = std::string(".") + ShapeName(s);
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      name.resize(name.size() - suffix.size());
    }
  }
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_s")) return "s";
  if (ends("per_user_byte")) return "B/B";
  if (ends("bytes_per_op")) return "B";
  if (ends("per_kop")) return "1/kop";
  return "count";
}

// Per-layer figures are means, so that the insert ledger adds up:
// collection.insert_unaccounted_us is the facade insert minus the layers
// it is made of (the parse is inside both the encode and the table
// insert, so it is reported but not subtracted).
std::vector<Metric> PerLayer(const Ledger& L) {
  std::vector<Metric> m;
  auto mean = [&](const std::string& name) {
    auto it = L.layer.find(name);
    return it == L.layer.end() ? 0.0 : it->second.Mean();
  };
  for (const auto& [name, samples] : L.layer) {
    m.push_back({name, samples.Mean(), LayerUnit(name)});
  }
  const double flush_per_op = mean("wal.flush_us") * mean("wal.fsyncs_per_kop") / 1000.0;
  m.push_back({"collection.insert_unaccounted_us",
               mean("collection.insert_us") - mean("oson.encode_us") -
                   mean("wal.append_us") - flush_per_op -
                   mean("rdbms.table_insert_us") - mean("index.on_insert_us") -
                   mean("dataguide.add_us"),
               "us"});
  for (int s = 0; s < kShapeCount; ++s) {
    uint64_t total = 0;
    for (const auto& [path, n] : L.paths[s]) total += n;
    auto it = L.paths[s].find(ShapePath(s));
    const double hit = it == L.paths[s].end() ? 0 : static_cast<double>(it->second);
    m.push_back({std::string("collection.access_path.") + ShapeName(s) + "." +
                     ShapePath(s),
                 total > 0 ? hit / total : 0, "share"});
  }
  return m;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      o->tiny = true;
    } else if (a == "--perturb") {
      o->perturb = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o->trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir" && has_value) {
      o->work_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return !o->workload.empty() && !o->work_dir.empty() && o->seconds > 0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: fsdm_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> [--tiny] "
                 "[--perturb]\n");
    return 2;
  }
  // Before the first routed query starts the pool.
  const size_t workers = WorkerCount();
  setenv("FSDM_WORKERS", std::to_string(workers).c_str(), 1);
  const std::string incidents = options.work_dir + "/incidents";
  setenv("FSDM_INCIDENT_DIR", incidents.c_str(), 1);
  // Routing under the seeded operator costs: the adaptive model learns
  // from measured span times, so with it the same query could take a
  // different access path from one run to the next.
  stats::OperatorCostModel::Global().Reset();
  stats::OperatorCostModel::Global().set_frozen(true);

  Ledger ledger;
  if (!RunWorkload(options, &ledger)) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, tally] : ledger.ops) {
    std::printf("ops %-16s attempted %8llu failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    attempted += tally.attempted;
    failed += tally.failed;
  }
  for (int s = 0; s < kShapeCount; ++s) {
    uint64_t total = 0;
    for (const auto& [path, n] : ledger.paths[s]) total += n;
    for (const auto& [path, n] : ledger.paths[s]) {
      std::printf("access path %-10s %-24s %.4f of %llu shard decisions\n",
                  ShapeName(s), path.c_str(), static_cast<double>(n) / total,
                  static_cast<unsigned long long>(total));
    }
  }
  const int threads = ThreadCount();
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("rounds %d, drain workers %zu, threads %d, cpus %u\n",
              ledger.rounds, rdbms::WorkerPool::Global().worker_count(),
              threads, cpus);
  // Printed in both modes: the traced run's overhead is the difference.
  std::printf("timed phase %llu ops in %.3f s wall, %.3f s cpu\n",
              static_cast<unsigned long long>(ledger.timed_ops),
              ledger.timed.wall_s, ledger.timed.cpu_s);
  std::printf("host speed: %zu calibration slices, median %.1f us cpu, "
              "scale %.4f\n",
              ledger.slices, ledger.slice_us, ledger.scale);
  PrintWall(ledger);
  if (threads > static_cast<int>(cpus)) {
    ledger.Problem("process ran " + std::to_string(threads) +
                   " threads on " + std::to_string(cpus) + " cpus");
  }

  std::vector<Metric> metrics = options.trace ? PerLayer(ledger) : EndToEnd(ledger);
  for (const Metric& m : metrics) {
    if (!options.trace && !(m.value > 0)) {
      ledger.Problem("end-to-end metric " + m.name + " has no samples");
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& p : ledger.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ledger.problem_count == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace fsdm::perfbench

int main(int argc, char** argv) { return fsdm::perfbench::Main(argc, argv); }
