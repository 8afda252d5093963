// In-memory span recorder for the traced run, written out at exit as Chrome
// trace-event JSON (loads in ui.perfetto.dev or chrome://tracing).
//
// Spans are wall-clock intervals around calls into one layer. Each carries
// its name, start, end, the span that caused it (parent), the replica it ran
// on, and the request ids it enqueued or finished. Recording appends to
// vectors only; nothing is formatted or written until WriteChromeJson.

#ifndef PERFBENCH_SRC_SPAN_TRACE_H_
#define PERFBENCH_SRC_SPAN_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/report.h"

namespace perfbench {

class SpanTrace {
 public:
  static constexpr int32_t kNoParent = -1;

  SpanTrace() : origin_(Clock::now()) {}

  // Reserves a span whose end is not known yet (an enclosing span); returns
  // its id for children to name as parent. Close it with End.
  int32_t Begin(const char* name, int32_t parent, int32_t replica);
  void End(int32_t span);

  // Records a finished span [start, end].
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           int32_t parent, int32_t replica,
           const std::vector<int64_t>& request_ids = {});

  int64_t size() const { return static_cast<int64_t>(spans_.size()); }

  // Writes every span as a complete ("X") event: pid 1, tid = replica id
  // + 1, so replica -1 (the experiment loop) shows as thread 0. `metadata`
  // is a JSON object body (without braces) stored under "otherData".
  // Returns false if the file cannot be written.
  bool WriteChromeJson(const std::string& path,
                       const std::string& metadata) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int32_t replica;
    int64_t ids_begin;  // [ids_begin, ids_end) of request_ids_
    int64_t ids_end;
  };

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> request_ids_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_TRACE_H_
