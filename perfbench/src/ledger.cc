// The per-layer ledger of the traced run. One seeded stream goes through
// each layer in turn -- the bare sketch, the ingest pipeline, the pipeline
// with a WAL, the server over an in-process loopback conn pumped on this
// thread, and the server over TCP -- so a layer's own cost is the difference
// between neighbouring lanes. Every lane's answers are checked like the
// end-to-end workloads' are.
#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "durability/storage.h"
#include "ingest/ingest_pipeline.h"
#include "inputs.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace net = streamq::net;
namespace ingest = streamq::ingest;
using streamq::Algorithm;

namespace {

constexpr uint64_t kLaneValues = uint64_t{1} << 21;
constexpr int kRepeats = 5;
constexpr int kRoundTrips = 20;

void Put(Outcome* out, const std::string& name, double value,
         const char* unit) {
  out->metrics.push_back({name, value, unit});
}

/// One timing of `fn`, in microseconds.
template <typename Fn>
double TimeUs(Fn fn) {
  const int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e3;
}

/// Median of `repeats` timings of `fn`, in microseconds.
template <typename Fn>
double MedianUs(int repeats, Fn fn) {
  std::vector<double> us;
  for (int i = 0; i < repeats; ++i) us.push_back(TimeUs(fn));
  return Median(us);
}

/// Checks answers and ranks on the whole grid; returns the worst error.
double CheckGrid(const std::string& who, const SortedMultiset& exact,
                 const std::vector<uint64_t>& answers,
                 const std::vector<int64_t>& ranks, double budget,
                 Outcome* out) {
  const std::vector<double> grid = PhiGrid();
  return out->verdict.CheckGrid(who, exact, grid, answers,
                                RankProbes(exact, grid), ranks, budget);
}

// --- quantile ----------------------------------------------------------------

void QuantileLane(const Options& options, Tracer* tracer, Outcome* out) {
  const std::vector<uint64_t> input =
      MpcatStream(Scaled(options, kSuiteValues), DeriveSeed(options.seed, 1));
  const SortedMultiset exact(input);
  const std::vector<double> grid = PhiGrid();
  const std::vector<uint64_t> probes = RankProbes(exact, grid);
  const uint64_t n = input.size();
  auto feed = [&](streamq::QuantileSketch& sketch, size_t from, size_t to) {
    for (size_t at = from; at < to; at += kSpan) {
      Scope span(tracer, "quantile.UpdateBatch");
      const size_t take = std::min(kSpan, to - at);
      ++out->attempted;
      if (sketch.UpdateBatch(std::span<const uint64_t>(input.data() + at, take)) != 0) {
        ++out->failed;
      }
    }
  };
  for (const SuiteEntry& entry : PaperSuite()) {
    Scope lane(tracer, entry.name);
    const std::string p = std::string("quantile.") + entry.name;
    const streamq::SketchConfig config =
        SuiteConfig(entry.algorithm, DeriveSeed(options.seed, 2));
    auto sketch = streamq::MakeSketch(config);
    const int64_t t0 = NowNs();
    feed(*sketch, 0, n);
    Put(out, p + ".update_ns", static_cast<double>(NowNs() - t0) / static_cast<double>(n), "ns");

    std::vector<uint64_t> answers;
    std::vector<int64_t> ranks;
    std::vector<double> query_us;
    std::vector<double> rank_us;
    for (const double phi : grid) {
      Scope span(tracer, "quantile.Query");
      query_us.push_back(TimeUs([&] { answers.push_back(sketch->Query(phi)); }));
    }
    for (const uint64_t probe : probes) {
      Scope span(tracer, "quantile.EstimateRank");
      rank_us.push_back(TimeUs([&] { ranks.push_back(sketch->EstimateRank(probe)); }));
    }
    out->attempted += 2 * grid.size();
    Put(out, p + ".query_us", Median(query_us), "us");
    Put(out, p + ".rank_us", Median(rank_us), "us");
    Put(out, p + ".bytes", static_cast<double>(sketch->MemoryBytes()), "bytes");
    Put(out, p + ".max_rank_error",
        CheckGrid(entry.name, exact, answers, ranks, Slack(entry.name) * kEps, out),
        "fraction");
    if (!entry.mergeable) continue;

    auto left = streamq::MakeSketch(config);
    auto right = streamq::MakeSketch(config);
    feed(*left, 0, n / 2);
    feed(*right, n / 2, n);
    Put(out, p + ".merge_us", MedianUs(kRepeats, [&] {
          std::unique_ptr<streamq::QuantileSketch> merged = left->Clone();
          Scope span(tracer, "quantile.Merge");
          ++out->attempted;
          if (merged == nullptr || merged->Merge(*right) != streamq::StreamqStatus::kOk) {
            ++out->failed;
          } else {
            out->verdict.CheckEqual(p + " merged count", merged->Count(), n);
          }
        }), "us");
    Put(out, p + ".serde_us", MedianUs(kRepeats, [&] {
          Scope span(tracer, "quantile.SerializeDeserialize");
          ++out->attempted;
          auto copy = streamq::DeserializeSketch(streamq::SerializeSketch(*sketch));
          if (copy == nullptr) {
            ++out->failed;
          } else {
            out->verdict.CheckEqual(p + " restored count", copy->Count(), n);
          }
        }), "us");
  }
}

// --- ingest and durability ---------------------------------------------------

/// Feeds `input` through `pipeline` in kSpan PushBatch calls with a Flush
/// after every kFramesPerFlush of them, then checks the answers.
void PipelineLane(const std::string& p, ingest::IngestPipeline& pipeline,
                  const std::vector<uint64_t>& input,
                  const SortedMultiset& exact, Tracer* tracer, Outcome* out) {
  std::vector<streamq::Update> updates(input.size());
  for (size_t i = 0; i < input.size(); ++i) updates[i] = streamq::Update{input[i], +1};
  int64_t push_ns = 0;
  std::vector<double> flush_us;
  for (size_t at = 0, frames = 0; at < updates.size(); at += kSpan) {
    const size_t take = std::min(kSpan, updates.size() - at);
    {
      Scope span(tracer, "ingest.PushBatch");
      const int64_t t0 = NowNs();
      pipeline.PushBatch(std::span<const streamq::Update>(updates.data() + at, take));
      push_ns += NowNs() - t0;
    }
    ++out->attempted;
    if (++frames % kFramesPerFlush == 0 || at + take == updates.size()) {
      Scope span(tracer, "ingest.Flush");
      flush_us.push_back(TimeUs([&] { pipeline.Flush(); }));
    }
  }
  Put(out, p + ".push_ns", static_cast<double>(push_ns) / static_cast<double>(input.size()), "ns");
  Put(out, p + ".flush_us", Median(flush_us), "us");

  const std::vector<double> grid = PhiGrid();
  const std::vector<uint64_t> probes = RankProbes(exact, grid);
  std::vector<uint64_t> answers;
  std::vector<int64_t> ranks;
  std::vector<double> query_us;
  std::vector<double> rank_us;
  for (size_t i = 0; i < grid.size(); ++i) {
    Scope q(tracer, "ingest.Query");
    query_us.push_back(TimeUs([&] { answers.push_back(pipeline.Query(grid[i])); }));
    rank_us.push_back(TimeUs([&] { ranks.push_back(pipeline.Rank(probes[i])); }));
  }
  out->attempted += 2 * grid.size();
  if (p == "ingest") {
    Put(out, p + ".query_us", Median(query_us), "us");
    Put(out, p + ".rank_us", Median(rank_us), "us");
  }
  CheckGrid(p, exact, answers, ranks, Slack("Random") * kEps, out);
}

void IngestLanes(const Options& options, const std::vector<uint64_t>& input,
                 const SortedMultiset& exact, Tracer* tracer, Outcome* out) {
  ingest::IngestOptions io;
  io.sketch = SuiteConfig(Algorithm::kRandom, DeriveSeed(options.seed, 8));
  io.shards = 2;
  {
    Scope lane(tracer, "ingest");
    auto pipeline = ingest::IngestPipeline::Create(io);
    if (pipeline == nullptr) {
      out->verdict.Fail("pipeline could not be created");
      return;
    }
    PipelineLane("ingest", *pipeline, input, exact, tracer, out);
    uint64_t stalls = 0;
    for (int s = 0; s < pipeline->shard_count(); ++s) {
      stalls += pipeline->shard_stats(s).ring_full_stalls.load();
    }
    Put(out, "ingest.ring_full_stalls", static_cast<double>(stalls), "count");
    Put(out, "ingest.publishes", static_cast<double>(pipeline->stats().publishes.load()), "count");
    Put(out, "ingest.peak_bytes", static_cast<double>(pipeline->PeakMemoryBytes()), "bytes");
  }

  Scope lane(tracer, "durability");
  streamq::durability::MemStorage storage;
  io.durability.enabled = true;
  io.durability.storage = &storage;
  io.durability.dir = "ledger";
  io.durability.sync_interval = net::ServerOptions{}.wal_sync_interval;
  auto pipeline = ingest::IngestPipeline::Create(io);
  if (pipeline == nullptr) {
    out->verdict.Fail("durable pipeline could not be created");
    return;
  }
  PipelineLane("durability", *pipeline, input, exact, tracer, out);
  out->verdict.CheckEqual("durable seq after Flush", pipeline->DurableSeq(), input.size());
  streamq::obs::MetricsRegistry registry;
  pipeline->PublishMetrics(registry, "p");
  double wal_bytes = 0;
  double wal_syncs = 0;
  for (int s = 0; s < pipeline->shard_count(); ++s) {
    const std::string shard = "p.shard" + std::to_string(s);
    if (const auto* c = registry.FindCounter(shard + ".wal_bytes")) wal_bytes += static_cast<double>(c->value());
    if (const auto* c = registry.FindCounter(shard + ".wal_syncs")) wal_syncs += static_cast<double>(c->value());
  }
  Put(out, "durability.wal_bytes", wal_bytes, "bytes");
  Put(out, "durability.wal_syncs", wal_syncs, "count");
  {
    Scope span(tracer, "durability.Checkpoint");
    Put(out, "durability.checkpoint_ms", TimeUs([&] {
          ++out->attempted;
          if (!pipeline->Checkpoint()) ++out->failed;
        }) / 1e3, "ms");
  }
  Put(out, "durability.checkpoints", static_cast<double>(pipeline->stats().checkpoints.load()), "count");
  pipeline.reset();
  {
    Scope span(tracer, "durability.Recover");
    Put(out, "durability.recovery_ms", TimeUs([&] { pipeline = ingest::IngestPipeline::Create(io); }) / 1e3, "ms");
  }
  uint64_t recovered = 0;
  if (pipeline == nullptr || pipeline->CloneView(&recovered) == nullptr) {
    out->verdict.Fail("durable pipeline did not recover");
  } else {
    out->verdict.CheckEqual("recovered count", recovered, input.size());
  }
}

// --- net ---------------------------------------------------------------------

/// A client over an in-process loopback conn whose server is pumped on the
/// calling thread: the protocol and session machinery without a socket or a
/// second thread.
class PumpedClient {
 public:
  explicit PumpedClient(net::StreamqServer& server) : server_(server) {
    auto [server_end, client_end] = net::MakeLoopbackPair(size_t{4} << 20);
    server_.AddConn(std::move(server_end));
    conn_ = std::move(client_end);
  }

  net::NetResponse Call(net::NetRequest request) {
    request.id = next_id_++;
    const std::string frame = net::EncodeRequest(request);
    size_t off = 0;
    const int64_t deadline = NowNs() + int64_t{60'000'000'000};
    net::NetResponse resp;
    while (NowNs() < deadline) {
      while (off < frame.size()) {
        const int n = conn_->Write(frame.data() + off, frame.size() - off);
        if (n <= 0) break;
        off += static_cast<size_t>(n);
      }
      server_.PumpAll();
      char buf[size_t{16} << 10];
      const int n = conn_->Read(buf, sizeof(buf));
      if (n < 0) break;
      if (n > 0) inbuf_.Append(buf, static_cast<size_t>(n));
      std::string reply;
      if (inbuf_.Next(&reply) == net::FrameScan::kFrame) {
        if (!net::DecodeResponse(reply, &resp)) break;
        return resp;
      }
    }
    resp.status = net::NetStatus::kBadRequest;
    resp.message = "loopback call did not complete";
    return resp;
  }

 private:
  net::StreamqServer& server_;
  std::unique_ptr<net::Conn> conn_;
  net::FrameBuffer inbuf_;
  uint64_t next_id_ = 1;
};

net::NetRequest Request(net::NetOp op, const std::string& stream) {
  net::NetRequest req;
  req.op = op;
  req.stream = stream;
  return req;
}

void LoopbackLane(const Options& options, const std::vector<uint64_t>& input,
                  const SortedMultiset& exact, Tracer* tracer, Outcome* out) {
  Scope lane(tracer, "net.loopback");
  net::StreamqServer server(net::ServerOptions{});
  PumpedClient client(server);
  net::NetRequest create = Request(net::NetOp::kCreate, "s");
  create.create = RandomStream(DeriveSeed(options.seed, 8), false, 0);
  Count(client.Call(create), "CREATE", out);
  std::vector<double> insert_ns;
  for (size_t at = 0, frames = 0; at < input.size(); at += kSpan) {
    const size_t take = std::min(kSpan, input.size() - at);
    net::NetRequest req = Request(net::NetOp::kBatchInsert, "s");
    req.values.assign(input.begin() + static_cast<std::ptrdiff_t>(at),
                      input.begin() + static_cast<std::ptrdiff_t>(at + take));
    Scope span(tracer, "net.loopback.BATCH_INSERT", at / kSpan + 1);
    const int64_t t0 = NowNs();
    Count(client.Call(std::move(req)), "BATCH_INSERT", out);
    insert_ns.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(take));
    if (++frames % kFramesPerFlush == 0 || at + take == input.size()) {
      Scope flush(tracer, "net.loopback.FLUSH");
      Count(client.Call(Request(net::NetOp::kFlush, "s")), "FLUSH", out);
    }
  }
  Put(out, "net.loopback.insert_ns", Median(insert_ns), "ns");
  const std::vector<double> grid = PhiGrid();
  const std::vector<uint64_t> probes = RankProbes(exact, grid);
  std::vector<uint64_t> answers;
  std::vector<int64_t> ranks;
  std::vector<double> query_us;
  for (size_t i = 0; i < grid.size(); ++i) {
    net::NetRequest q = Request(net::NetOp::kQuery, "s");
    q.phi = grid[i];
    net::NetRequest r = Request(net::NetOp::kRank, "s");
    r.value = probes[i];
    Scope span(tracer, "net.loopback.QUERY");
    net::NetResponse resp;
    query_us.push_back(TimeUs([&] { resp = client.Call(q); }));
    Count(resp, "QUERY", out);
    answers.push_back(resp.value);
    resp = client.Call(r);
    Count(resp, "RANK", out);
    ranks.push_back(resp.rank);
  }
  Put(out, "net.loopback.query_us", Median(query_us), "us");
  CheckGrid("loopback", exact, answers, ranks, Slack("Random") * kEps, out);
  Put(out, "net.loopback.stats_us", MedianUs(kRoundTrips, [&] {
        Scope span(tracer, "net.loopback.STATS");
        const net::NetResponse resp = client.Call(Request(net::NetOp::kStats, "s"));
        if (Count(resp, "STATS", out)) {
          out->verdict.CheckEqual("loopback STATS count", resp.stats.count, input.size());
        }
      }), "us");
}

double ParksFrom(const std::string& metrics_text) {
  std::istringstream lines(metrics_text);
  std::string line;
  const std::string key = "streamq_net_parks_total ";
  while (std::getline(lines, line)) {
    if (line.rfind(key, 0) == 0) return std::strtod(line.c_str() + key.size(), nullptr);
  }
  return 0.0;
}

void TcpLane(const Options& options, const std::vector<uint64_t>& input,
             const SortedMultiset& exact, Tracer* tracer, Outcome* out) {
  Scope lane(tracer, "net.tcp");
  ServerFixture fixture{net::ServerOptions{}};
  auto client = fixture.Connect();
  if (client == nullptr) {
    out->verdict.Fail("cannot connect to the ledger server");
    return;
  }
  Count(client->Create("s", RandomStream(DeriveSeed(options.seed, 8), false, 0)), "CREATE", out);
  int64_t insert_ns = 0;
  std::vector<double> flush_us;
  const size_t group = kFramesPerFlush * kSpan;
  for (size_t at = 0; at < input.size(); at += group) {
    const size_t take = std::min(group, input.size() - at);
    const int64_t t0 = NowNs();
    SendBatches(*client, "s", input.data() + at, take, kWindow, tracer, out);
    insert_ns += NowNs() - t0;
    Scope span(tracer, "net.tcp.FLUSH");
    net::NetResponse ack;
    flush_us.push_back(TimeUs([&] { ack = client->Flush("s"); }));
    Count(ack, "FLUSH", out);
  }
  Put(out, "net.tcp.insert_ns", static_cast<double>(insert_ns) / static_cast<double>(input.size()), "ns");
  Put(out, "net.tcp.flush_us", Median(flush_us), "us");
  const std::vector<double> grid = PhiGrid();
  const std::vector<uint64_t> probes = RankProbes(exact, grid);
  std::vector<uint64_t> answers;
  std::vector<int64_t> ranks;
  std::vector<double> query_us;
  for (size_t i = 0; i < grid.size(); ++i) {
    Scope span(tracer, "net.tcp.QUERY");
    net::NetResponse resp;
    query_us.push_back(TimeUs([&] { resp = client->Query("s", grid[i]); }));
    Count(resp, "QUERY", out);
    answers.push_back(resp.value);
    resp = client->Rank("s", probes[i]);
    Count(resp, "RANK", out);
    ranks.push_back(resp.rank);
  }
  Put(out, "net.tcp.query_us", Median(query_us), "us");
  CheckGrid("tcp", exact, answers, ranks, Slack("Random") * kEps, out);
  Put(out, "net.tcp.stats_us", MedianUs(kRoundTrips, [&] {
        Scope span(tracer, "net.tcp.STATS");
        const net::NetResponse resp = client->Stats("s");
        if (Count(resp, "STATS", out)) {
          out->verdict.CheckEqual("tcp STATS count", resp.stats.count, input.size());
        }
      }), "us");
  Put(out, "net.parks", ParksFrom(fixture.server().MetricsText()), "count");
}

// --- audit -------------------------------------------------------------------

void AuditLane(const Options& options, const std::vector<uint64_t>& input,
               Tracer* tracer, Outcome* out) {
  Scope lane(tracer, "audit");
  net::ServerOptions server_options;
  server_options.audit = true;
  ServerFixture fixture(std::move(server_options));
  auto client = fixture.Connect();
  if (client == nullptr) {
    out->verdict.Fail("cannot connect to the audit server");
    return;
  }
  Count(client->Create("s", RandomStream(DeriveSeed(options.seed, 8), false, 0)), "CREATE", out);
  SendBatches(*client, "s", input.data(), input.size(), kWindow, nullptr, out);
  Count(client->Flush("s"), "FLUSH", out);
  Put(out, "audit.rpc_us", MedianUs(kRoundTrips, [&] {
        Scope span(tracer, "net.tcp.AUDIT");
        const net::NetResponse resp = client->Audit("s");
        if (Count(resp, "AUDIT", out) && !resp.audit.valid) {
          out->verdict.Fail("AUDIT round could not judge the stream");
        }
      }), "us");
  ingest::IngestPipeline* pipeline = fixture.server().FindStream("s");
  if (pipeline == nullptr) {
    out->verdict.Fail("audited stream not found");
    return;
  }
  streamq::obs::AuditReport report;
  Put(out, "audit.round_us", MedianUs(kRoundTrips, [&] {
        Scope span(tracer, "audit.AuditNow");
        report = pipeline->AuditNow();
      }), "us");
  Put(out, "audit.shadow_bytes", static_cast<double>(report.shadow_bytes), "bytes");
}

}  // namespace

void RunLedger(const Options& options, Tracer* tracer, Outcome* out) {
  Scope ledger(tracer, "ledger");
  QuantileLane(options, tracer, out);
  const std::vector<uint64_t> input =
      MpcatStream(Scaled(options, kLaneValues), DeriveSeed(options.seed, 7));
  const SortedMultiset exact(input);
  IngestLanes(options, input, exact, tracer, out);
  LoopbackLane(options, input, exact, tracer, out);
  TcpLane(options, input, exact, tracer, out);
  AuditLane(options, input, tracer, out);
}

}  // namespace perfbench
