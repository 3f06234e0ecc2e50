#include "stats/hll.h"

#include <cmath>

#include "common/hash.h"

namespace fsdm::stats {

namespace {

// FNV-1a's high bits barely avalanche on short sequential keys (the
// bucket index below reads the TOP p bits), so finalize with the murmur3
// fmix64 mixer before splitting the hash.
uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// kInversePow2.v[r] == 2^-r == std::ldexp(1.0, -r), exactly: every entry is a
// power of two well inside the normal double range. Registers are uint8_t,
// so the table covers every value one can hold.
struct InversePow2Table {
  double v[256];
  constexpr InversePow2Table() : v() {
    double x = 1.0;
    for (int r = 0; r < 256; ++r) {
      v[r] = x;
      x *= 0.5;
    }
  }
};
constexpr InversePow2Table kInversePow2;

}  // namespace

void Hll::Add(std::string_view canonical) { AddHash(Hash64(canonical)); }

void Hll::AddHash(uint64_t hash) {
  hash = Mix(hash);
  const size_t idx = static_cast<size_t>(hash >> (64 - kPrecision));
  // Rank of the first set bit in the remaining 64-p bits (1-based); an
  // all-zero suffix ranks 64-p+1.
  uint64_t rest = hash << kPrecision;
  uint8_t rank = 1;
  while (rank <= 64 - kPrecision && (rest & (uint64_t{1} << 63)) == 0) {
    ++rank;
    rest <<= 1;
  }
  if (rank > registers_[idx]) registers_[idx] = rank;
}

double Hll::Estimate() const {
  constexpr double m = static_cast<double>(kRegisters);
  // alpha_m for m >= 128 (Flajolet et al., 2007).
  constexpr double alpha = 0.7213 / (1.0 + 1.079 / m);
  // Summed in register order: the estimate is bit-identical to the
  // ldexp(1.0, -r) sum it replaces (the routing detail strings print it).
  double inverse_sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    inverse_sum += kInversePow2.v[r];
    if (r == 0) ++zeros;
  }
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    // Small-range correction: linear counting over the zero registers.
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void Hll::Merge(const Hll& other) {
  for (size_t i = 0; i < kRegisters; ++i) {
    if (other.registers_[i] > registers_[i]) {
      registers_[i] = other.registers_[i];
    }
  }
}

}  // namespace fsdm::stats
