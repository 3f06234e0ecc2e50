#include "stats/path_stats.h"

#include <algorithm>

#include "telemetry/memory_tracker.h"

namespace fsdm::stats {

// --- ValueHistogram ---------------------------------------------------------

void ValueHistogram::Add(double v) {
  ++total_;
  if (!frozen()) {
    buffer_.push_back(v);
    if (buffer_.size() >= kSeedCapacity) Freeze();
    return;
  }
  size_t bucket;
  if (hi_ == lo_) {
    bucket = 0;
  } else {
    double pos = (v - lo_) / (hi_ - lo_);
    pos = std::min(1.0, std::max(0.0, pos));
    bucket = std::min(counts_.size() - 1,
                      static_cast<size_t>(pos * static_cast<double>(
                                                    counts_.size())));
  }
  ++counts_[bucket];
}

void ValueHistogram::Freeze() {
  lo_ = *std::min_element(buffer_.begin(), buffer_.end());
  hi_ = *std::max_element(buffer_.begin(), buffer_.end());
  counts_.assign(hi_ == lo_ ? 1 : kBuckets, 0);
  std::vector<double> seed = std::move(buffer_);
  buffer_.clear();
  total_ -= seed.size();  // Add() re-counts them
  for (double v : seed) Add(v);
}

double ValueHistogram::FractionBelow(double x, bool inclusive) const {
  if (total_ == 0) return 0.0;
  if (!frozen()) {
    uint64_t below = 0;
    for (double v : buffer_) {
      if (v < x || (inclusive && v == x)) ++below;
    }
    return static_cast<double>(below) / static_cast<double>(total_);
  }
  if (hi_ == lo_) {
    return (x > lo_ || (inclusive && x == lo_)) ? 1.0 : 0.0;
  }
  if (x <= lo_) return (inclusive && x == lo_) ? 0.0 : 0.0;
  if (x >= hi_) return 1.0;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  const size_t hit = std::min(counts_.size() - 1,
                              static_cast<size_t>((x - lo_) / width));
  uint64_t below = 0;
  for (size_t i = 0; i < hit; ++i) below += counts_[i];
  const double in_bucket_frac =
      (x - (lo_ + static_cast<double>(hit) * width)) / width;
  const double partial = static_cast<double>(counts_[hit]) * in_bucket_frac;
  return (static_cast<double>(below) + partial) / static_cast<double>(total_);
}

void ValueHistogram::Clear() {
  buffer_.clear();
  counts_.clear();
  lo_ = hi_ = 0;
  total_ = 0;
}

// --- PathStatsRepository ----------------------------------------------------

namespace {

// MemoryBytes() charge of one path, histogram heap excluded: map node
// overhead (parent/child pointers + color), the owned key, the payload.
uint64_t PathBytes(const std::string& path) {
  constexpr uint64_t kNodeBytes = 4 * sizeof(void*);
  return kNodeBytes + telemetry::OwnedStringBytes(path) + sizeof(PathStats);
}

}  // namespace

void PathStatsRepository::OnScalar(const std::string& path, bool /*under_array*/,
                                   const Value& v) {
  auto [it, inserted] = paths_.try_emplace(path);
  if (inserted) memory_bytes_.Add(PathBytes(path));
  PathStats& s = it->second;
  // Per-document frequency via the stamp trick: the current document's
  // stamp is docs_seen_ + 1 (OnDocumentEnd increments docs_seen_ after the
  // walk).
  const uint64_t stamp = docs_seen_ + 1;
  if (s.last_doc_stamp != stamp) {
    s.last_doc_stamp = stamp;
    ++s.doc_frequency;
  }
  if (v.is_null()) {
    ++s.null_count;
    return;
  }
  ++s.value_count;
  s.ndv.Add(v.ToDisplayString());
  // Min/max keep the first comparable extremes; a heterogeneous path
  // (string vs number) simply stops updating across the incomparable pair.
  if (!s.min_value.has_value()) {
    s.min_value = v;
    s.max_value = v;
  } else {
    Result<int> lo = v.CompareTo(*s.min_value);
    if (lo.ok() && lo.value() < 0) s.min_value = v;
    Result<int> hi = v.CompareTo(*s.max_value);
    if (hi.ok() && hi.value() > 0) s.max_value = v;
  }
  if (v.IsNumeric()) {
    // Heap delta of this Add: one seed double, nothing once frozen, or the
    // seed buffer traded for the buckets on the freezing Add.
    const uint64_t before = s.histogram.HeapBytes();
    s.histogram.Add(v.NumericAsDouble());
    const uint64_t after = s.histogram.HeapBytes();
    if (after != before) {
      memory_bytes_.Add(after);
      memory_bytes_.Sub(before);
    }
  }
}

void PathStatsRepository::OnDocumentEnd() { ++docs_seen_; }

const PathStats* PathStatsRepository::Find(const std::string& path) const {
  auto it = paths_.find(path);
  return it == paths_.end() ? nullptr : &it->second;
}

std::optional<double> PathStatsRepository::ExistenceSelectivity(
    const std::string& path) const {
  if (docs_seen_ == 0) return std::nullopt;
  const PathStats* s = Find(path);
  if (s == nullptr) return 0.0;
  return std::min(1.0, static_cast<double>(s->doc_frequency) /
                           static_cast<double>(docs_seen_));
}

double PathStatsRepository::NdvEstimate(const std::string& path) const {
  const PathStats* s = Find(path);
  return s == nullptr ? 0.0 : s->ndv.Estimate();
}

uint64_t PathStatsRepository::RecomputeMemoryBytes() const {
  uint64_t total = 0;
  for (const auto& [path, stats] : paths_) {
    total += PathBytes(path) + stats.histogram.HeapBytes();
  }
  return total;
}

void PathStatsRepository::Clear() {
  paths_.clear();
  docs_seen_ = 0;
  memory_bytes_.Reset();
}

}  // namespace fsdm::stats
