// Result assembly for the benchmark: named metrics with units, correctness
// gates, and the one-line JSON result the benchmark prints last.

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an
// empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Set-up cost sampled across a run. A shared host's speed shifts in phases
// of a tenth of a second to minutes (blocks of 50 back-to-back set-ups of
// one process took a median of 2.0 ms or 2.9 ms), so a plain median over
// back-to-back set-ups reports the phase of that moment. Set-ups are
// therefore taken in bursts spread over the run, set-up i goes to sample
// i % kSamples, each sample is the fastest of its set-ups, and the
// reported value is the median of the samples.
class SetupSampler {
 public:
  static constexpr int kSamples = 5;

  void Add(double seconds);
  int64_t count() const { return count_; }
  double Value() const;

 private:
  int64_t count_ = 0;
  std::vector<double> best_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Samples behind a percentile or median; -1 when not a sampled statistic.
  int64_t samples = -1;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Correctness gates. Every check is one attempted operation; a failed
// check fails the run (correct = false) and counts as a failed operation.
class Gates {
 public:
  void Check(bool ok, const std::string& what);
  // Operations the workload itself attempted and failed (requests sent,
  // Chat calls made) besides the gate checks.
  void AddOperations(int64_t attempted, int64_t failed);

  bool all_ok() const { return failures_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// Peak resident set size of this process, MiB.
double PeakRssMb();

// Formats the final result line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Values print with 17 significant
// digits so every measured digit survives.
std::string ResultJson(const Gates& gates, const Report& report);

// Human-readable dump, one "name = value unit (n=...)" line per metric.
void PrintMetrics(const Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
