#include "tracer.h"

#include <cstdio>

namespace perfbench {

uint64_t Tracer::Begin(const char* name, uint64_t request) {
  const int64_t now = NowNs();
  if (origin_ns_ < 0) origin_ns_ = now;
  const uint64_t id = next_id_++;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return id;
  }
  const uint64_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
  spans_.push_back(Span{name, id, parent, request, now - origin_ns_, -1});
  open_.push_back(spans_.size() - 1);
  return id;
}

void Tracer::End(uint64_t id) {
  if (open_.empty() || spans_[open_.back()].id != id) return;  // dropped
  spans_[open_.back()].end_ns = NowNs() - origin_ns_;
  open_.pop_back();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;  // still open: not a complete event
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}",
                 first ? "" : ",\n", s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
