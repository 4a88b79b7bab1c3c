// streamq_perfbench: runs one benchmark workload and prints one JSON line.
//
//   streamq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-file PATH] [--scale F]
//
// Workloads: paper-suite, server-durable-ingest, server-query-mix. With
// --trace 0 the line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer ledger and the tracing overhead, and the spans go to
// --trace-file as Chrome trace JSON. Progress goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "streamq_perfbench: %s\nusage: streamq_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--trace-file PATH] "
               "[--scale F]\n",
               why);
  return 2;
}

void PrintJson(const perfbench::Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.verdict.ok() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.start_ns = perfbench::NowNs();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else if (flag == "--scale") {
      options.scale = std::strtod(value, nullptr);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!(options.seconds > 0.0) || !(options.scale > 0.0)) {
    return Usage("--seconds and --scale must be positive");
  }

  perfbench::Outcome out;
  if (!perfbench::RunWorkload(options, &out)) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!out.verdict.ok()) {
    std::fprintf(stderr, "%llu check(s) failed:\n%s",
                 static_cast<unsigned long long>(out.verdict.failures()),
                 out.verdict.report().c_str());
  }
  PrintJson(out);
  return 0;
}
