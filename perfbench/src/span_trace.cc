#include "perfbench/src/span_trace.h"

#include <cstdio>

namespace perfbench {

int32_t SpanTrace::Begin(const char* name, int32_t parent, int32_t replica) {
  const int64_t now = Ns(Clock::now());
  const int64_t ids = static_cast<int64_t>(request_ids_.size());
  spans_.push_back({name, now, now, parent, replica, ids, ids});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanTrace::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = Ns(Clock::now());
}

void SpanTrace::Add(const char* name, Clock::time_point start,
                    Clock::time_point end, int32_t parent, int32_t replica,
                    const std::vector<int64_t>& request_ids) {
  const int64_t ids_begin = static_cast<int64_t>(request_ids_.size());
  request_ids_.insert(request_ids_.end(), request_ids.begin(),
                      request_ids.end());
  spans_.push_back({name, Ns(start), Ns(end), parent, replica, ids_begin,
                    static_cast<int64_t>(request_ids_.size())});
}

bool SpanTrace::WriteChromeJson(const std::string& path,
                                const std::string& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {%s},\n",
               metadata.c_str());
  std::fprintf(f, "\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"replica\": %d, \"requests\": [",
                 s.name, s.replica + 1, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.replica);
    for (int64_t k = s.ids_begin; k < s.ids_end; ++k) {
      std::fprintf(f, "%s%lld", k == s.ids_begin ? "" : ",",
                   static_cast<long long>(
                       request_ids_[static_cast<size_t>(k)]));
    }
    std::fprintf(f, "]}}%s\n", i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
