// Shared pieces of streamq_perfbench: run options, the metric record,
// the server fixture, and the entry points of the workloads and the ledger.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "net/client.h"
#include "net/reactor.h"
#include "net/server.h"
#include "quantile/factory.h"
#include "tracer.h"

namespace perfbench {

/// Target rank error of every summary the benchmark builds.
inline constexpr double kEps = 0.001;
/// Values per UpdateBatch span and per BATCH_INSERT frame.
inline constexpr size_t kSpan = 4096;
/// Values of the paper-suite stream (before --scale).
inline constexpr uint64_t kSuiteValues = uint64_t{1} << 19;
/// BATCH_INSERT frames (or PushBatch spans) between two FLUSHes.
inline constexpr size_t kFramesPerFlush = 64;
/// BATCH_INSERT frames in flight per pipelining client.
inline constexpr size_t kWindow = 64;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every input size (tests run at a small fraction).
  double scale = 1.0;
  /// Where the traced run writes its Chrome trace.
  std::string trace_file;
  /// NowNs() at process start: set-up time is measured from here.
  int64_t start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the JSON line's fields plus the check verdict.
struct Outcome {
  Verdict verdict;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// A summary of the paper suite under its metric name ("+" is not allowed
/// in metric names, so DCS+Post is "DCSPost").
struct SuiteEntry {
  streamq::Algorithm algorithm;
  const char* name;
  bool mergeable;
};
/// The paper's practical summaries, RSS left out (milliseconds per update).
const std::vector<SuiteEntry>& PaperSuite();

/// Sketch config for `algorithm` over the MPCAT-like universe.
streamq::SketchConfig SuiteConfig(streamq::Algorithm algorithm, uint64_t seed);

/// Scaled input size, at least one span.
uint64_t Scaled(const Options& options, uint64_t n);

/// Process CPU seconds, all threads (getrusage).
double CpuSeconds();

/// In-process StreamqServer behind an epoll reactor on a loopback port,
/// pumped by one reactor thread.
class ServerFixture {
 public:
  explicit ServerFixture(streamq::net::ServerOptions options);
  ~ServerFixture();
  ServerFixture(const ServerFixture&) = delete;
  ServerFixture& operator=(const ServerFixture&) = delete;

  /// A client connected over TCP; nullptr when the reactor could not bind.
  std::unique_ptr<streamq::net::StreamqClient> Connect();
  streamq::net::StreamqServer& server() { return *server_; }

 private:
  std::unique_ptr<streamq::net::StreamqServer> server_;
  std::unique_ptr<streamq::net::Reactor> reactor_;
  std::thread thread_;
};

/// CREATE parameters of a Random stream over the MPCAT-like universe.
streamq::net::CreateParams RandomStream(uint64_t seed, bool durable,
                                        uint32_t shards);

/// Counts `resp` as one attempted operation, and as failed unless it is ok.
/// Returns resp.ok().
bool Count(const streamq::net::NetResponse& resp, const std::string& what,
           Outcome* out);

/// Pipelines `values` as kSpan-value BATCH_INSERT frames with at most
/// `window` frames outstanding, checking every acknowledgement.
void SendBatches(streamq::net::StreamqClient& client, const std::string& stream,
                 const uint64_t* values, size_t n, size_t window,
                 Tracer* tracer, Outcome* out);

/// Runs the named end-to-end workload for options.seconds (trace off) or
/// the traced run (ledger plus tracing overhead). False for an unknown
/// workload name.
bool RunWorkload(const Options& options, Outcome* out);

/// The per-layer ledger: one seeded stream through each layer in turn.
void RunLedger(const Options& options, Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
