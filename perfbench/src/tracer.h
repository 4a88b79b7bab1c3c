// Spans recorded by the benchmark's own code around its calls into each
// layer of the library, kept in memory and written out as Chrome trace JSON
// when the run ends. Single-threaded: only the benchmark's thread records.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// Spans beyond this many are counted in dropped() but not kept.
  static constexpr size_t kMaxSpans = size_t{1} << 19;

  /// Opens a span named `name` (a string literal) as a child of the
  /// innermost open span. `request` groups the spans of one request.
  /// Returns the span id for End.
  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Writes every kept span as a complete ("X") Chrome trace event whose
  /// args carry its id, parent id and request id. False on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_ of the open spans
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  int64_t origin_ns_ = -1;
};

/// RAII span; a null tracer makes it a no-op, which is how untraced runs
/// share the traced code path.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
