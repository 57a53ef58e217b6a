#pragma once
// Log-bucketed latency histogram (DESIGN.md §6): fixed-size and cheap enough to live on every latency-shaped path in the system (job
// submit→dispatch→done, cooperation rounds, frame RTTs, checkpoint writes).
//
// Buckets are log-scaled: each octave (factor-of-two range) is split into
// kSubBuckets equal-width slices, so any recorded value lands in a bucket
// whose bounds are within a factor of (kSubBuckets + 1) / kSubBuckets = 9/8
// of each other — percentile estimates carry at most 12.5% relative error
// (the first slice of an octave is the widest; interior slices narrow toward
// 2^(1/kSubBuckets)) while the whole histogram is a fixed ~4 KiB array.
//
// Exact count/min/max travel alongside the buckets, so percentile results
// are always clamped into the true observed range. Values <= 0 (and NaN)
// land in a dedicated underflow bucket and report as 0.0 — a negative
// latency is a clock artifact, not data.

#include <array>
#include <cstddef>
#include <cstdint>

namespace pts {

class LogHistogram {
 public:
  /// Sub-buckets per octave: 8 equal slices → ≤ 9/8 relative bucket width.
  static constexpr int kSubBuckets = 8;
  /// Smallest resolved magnitude ~2^-40 ≈ 9e-13 (sub-picosecond when the
  /// unit is seconds); anything smaller clamps into the first real bucket.
  static constexpr int kMinExponent = -40;
  /// Largest resolved magnitude ~2^24 ≈ 1.7e7 (about 194 days in seconds);
  /// anything larger clamps into the last bucket.
  static constexpr int kMaxExponent = 24;
  /// Bucket 0 is the underflow bucket (v <= 0 or NaN).
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 1;

  void record(double value);


  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0, 1] (clamped): the geometric midpoint of the
  /// bucket holding the rank-ceil(q*count) observation, clamped into
  /// [min(), max()]. 0 when empty. Within one bucket width — a factor
  /// (kSubBuckets + 1) / kSubBuckets — of the exact order statistic by
  /// construction.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const {
    return buckets_[index];
  }

  /// Bucket index a value would land in (exposed for the bound tests).
  [[nodiscard]] static std::size_t bucket_index(double value);
  /// Inclusive lower / exclusive upper value bounds of a bucket; bucket 0
  /// reports [0, smallest-resolved).
  [[nodiscard]] static double bucket_lower_bound(std::size_t index);
  [[nodiscard]] static double bucket_upper_bound(std::size_t index);

  friend bool operator==(const LogHistogram& a, const LogHistogram& b) {
    return a.buckets_ == b.buckets_ && a.count_ == b.count_ &&
           a.min_ == b.min_ && a.max_ == b.max_ && a.sum_ == b.sum_;
  }

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pts
