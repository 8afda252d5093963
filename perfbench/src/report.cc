#include "perfbench/src/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void SetupSampler::Add(double seconds) {
  const size_t slot = static_cast<size_t>(count_++ % kSamples);
  if (slot == best_.size()) {
    best_.push_back(seconds);
  } else {
    best_[slot] = std::min(best_[slot], seconds);
  }
}

double SetupSampler::Value() const { return Median(best_); }

void Report::Add(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Gates::Check(bool ok, const std::string& what) {
  ++attempted_;
  std::printf("gate %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Gates::AddOperations(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string ResultJson(const Gates& gates, const Report& report) {
  std::string out = "{\"correct\": ";
  out += gates.all_ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(gates.attempted());
  out += ", \"failed\": " + std::to_string(gates.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void PrintMetrics(const Report& report) {
  for (const Metric& m : report.metrics()) {
    if (m.samples >= 0) {
      std::printf("%-40s %14.6g %-6s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    } else {
      std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

}  // namespace perfbench
