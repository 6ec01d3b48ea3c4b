// Streaming descriptive statistics for the benchmark harnesses.
//
// Every table in EXPERIMENTS.md reports means over replicated GA runs; Welford
// accumulation keeps those numerically stable without storing samples.
#pragma once

#include <cstddef>

namespace gaplan::util {

/// Welford online mean/variance accumulator.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Merges another accumulator (parallel reduction; Chan et al.).
  void merge(const RunningStat& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace gaplan::util
