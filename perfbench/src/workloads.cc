// The three end-to-end workloads. Each runs in rounds of a fixed amount of
// work: one warm-up round whose timings are dropped, then timed rounds until
// the run's seconds are used up. Timings are medians over the timed rounds,
// or percentiles of the samples pooled over them (on paper-suite, per
// summary, then their geometric mean), all scaled to a reference host
// speed. Sizes and errors come from the warm-up round, whose answers are the
// same on every run of a seed.
#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "durability/storage.h"
#include "ingest/ingest_pipeline.h"
#include "inputs.h"

namespace perfbench {

namespace net = streamq::net;
using streamq::Algorithm;

// --- sizes (before --scale) -------------------------------------------------
constexpr uint64_t kDurableValues = uint64_t{1} << 21;
constexpr size_t kProbesPerFlush = 4;
constexpr uint64_t kPreloadValues = uint64_t{1} << 21;
constexpr int kCyclesPerRound = 8;  // CycleGrid covers the grid in 8 cycles
constexpr int kQueriesPerCycle = 16;
constexpr int kAuditEvery = 4;
/// Timed rounds however short --seconds is.
constexpr size_t kMinRounds = 5;
/// Time of the reference sort (ReferenceSortNs) that timings are scaled
/// to: about what it takes on the 4-vCPU VM of README.md's
/// figures when the host is quiet.
constexpr double kReferenceSortNs = 4.0e6;
/// Rounds of a server workload whose worst errors max_rank_error averages.
/// Each round is a fresh stream with its own sketch seed; one stream's worst
/// error varies by about a third from seed to seed, the mean of 32 by a
/// sixth of that.
constexpr size_t kAccuracyRounds = 32;

const std::vector<SuiteEntry>& PaperSuite() {
  static const std::vector<SuiteEntry> suite = {
      {Algorithm::kGkTheory, "GKTheory", false},
      {Algorithm::kGkAdaptive, "GKAdaptive", false},
      {Algorithm::kGkArray, "GKArray", false},
      {Algorithm::kFastQDigest, "FastQDigest", true},
      {Algorithm::kMrl99, "MRL99", true},
      {Algorithm::kRandom, "Random", true},
      {Algorithm::kDcm, "DCM", true},
      {Algorithm::kDcs, "DCS", true},
      {Algorithm::kDcsPost, "DCSPost", false},
  };
  return suite;
}

streamq::SketchConfig SuiteConfig(Algorithm algorithm, uint64_t seed) {
  streamq::SketchConfig config;
  config.algorithm = algorithm;
  config.eps = kEps;
  config.log_universe = kLogUniverse;
  config.seed = seed;
  return config;
}

uint64_t Scaled(const Options& options, uint64_t n) {
  return std::max<uint64_t>(
      kSpan, static_cast<uint64_t>(std::llround(static_cast<double>(n) * options.scale)));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

ServerFixture::ServerFixture(net::ServerOptions options)
    : server_(std::make_unique<net::StreamqServer>(std::move(options))),
      reactor_(net::Reactor::Create(server_.get(), net::ReactorOptions{})) {
  if (reactor_ != nullptr) thread_ = std::thread([this] { reactor_->Run(); });
}

ServerFixture::~ServerFixture() {
  if (reactor_ != nullptr) {
    reactor_->Shutdown();
    thread_.join();
  }
}

std::unique_ptr<net::StreamqClient> ServerFixture::Connect() {
  if (reactor_ == nullptr) return nullptr;
  net::ClientOptions options;
  options.io_timeout_ms = 60000;
  return net::StreamqClient::ConnectTcp("127.0.0.1", reactor_->port(), options);
}

bool Count(const net::NetResponse& resp, const std::string& what,
           Outcome* out) {
  ++out->attempted;
  if (resp.ok()) return true;
  ++out->failed;
  out->verdict.Fail(what + " failed: " + resp.message);
  return false;
}

void SendBatches(net::StreamqClient& client, const std::string& stream,
                 const uint64_t* values, size_t n, size_t window,
                 Tracer* tracer, Outcome* out) {
  net::NetResponse resp;
  for (size_t at = 0; at < n; at += kSpan) {
    const size_t take = std::min(kSpan, n - at);
    net::NetRequest req;
    req.op = net::NetOp::kBatchInsert;
    req.stream = stream;
    req.values.assign(values + at, values + at + take);
    uint64_t id = 0;
    {
      Scope send(tracer, "net.BATCH_INSERT.send");
      id = client.Send(std::move(req));
    }
    if (id == 0) {
      ++out->attempted;
      ++out->failed;
      out->verdict.Fail("BATCH_INSERT send failed: " + client.error());
      return;
    }
    while (client.outstanding() >= window) {
      Scope ack(tracer, "net.BATCH_INSERT.ack");
      if (!client.Receive(&resp)) {
        ++out->attempted;
        ++out->failed;
        out->verdict.Fail("BATCH_INSERT ack lost: " + client.error());
        return;
      }
      Count(resp, "BATCH_INSERT", out);
    }
  }
  std::vector<net::NetResponse> rest;
  {
    Scope drain(tracer, "net.BATCH_INSERT.ack");
    if (!client.DrainAll(&rest)) {
      ++out->attempted;
      ++out->failed;
      out->verdict.Fail("BATCH_INSERT drain failed: " + client.error());
    }
  }
  for (const net::NetResponse& r : rest) Count(r, "BATCH_INSERT", out);
}

namespace {

double ElapsedUs(int64_t since_ns) {
  return static_cast<double>(NowNs() - since_ns) / 1e3;
}

/// Timings of one summary (paper-suite) or of the whole round (the server
/// workloads, whose one stream answers everything).
struct Part {
  double values = 0.0;    // values summarised in the timed phase
  double ingest_s = 0.0;  // first value offered .. every value in answers
  double cpu_s = 0.0;     // process CPU over the part's operations
  std::vector<double> query_us;
  std::vector<double> rank_us;
  /// The reference sort's time around the part: on paper-suite the mean of
  /// the sorts just before and just after each summary, on the servers the
  /// sort made just before the round's stream is created.
  double reference_ns = 0.0;
};

/// One round's measurements.
struct RoundSample {
  std::vector<Part> parts = std::vector<Part>(1);
  double summary_bytes = 0.0;
  double max_error = 0.0;

  double CpuTotal() const {
    double sum = 0.0;
    for (const Part& part : parts) sum += part.cpu_s;
    return sum;
  }

  /// Scales each part's timings to the host speed at which the reference
  /// sort takes kReferenceSortNs.
  void ToReferenceSpeed() {
    for (Part& part : parts) {
      const double f = kReferenceSortNs / part.reference_ns;
      part.ingest_s *= f;
      part.cpu_s *= f;
      for (double& us : part.query_us) us *= f;
      for (double& us : part.rank_us) us *= f;
    }
  }
};

/// The host's speed, as the benchmark's own code sees it: the best of three
/// std::sorts of a fixed 2^16-value array (about 4 ms). It runs no streamq
/// code, and it is called only when no streamq code runs either: before
/// set-up, between paper-suite's summaries, and on the servers between
/// dropping one round's stream and creating the next, when no shard worker
/// exists. So a change to the program cannot move it. (A sort made
/// beside a live stream's shard worker spread more than the timings it was
/// meant to steady.)
double ReferenceSortNs() {
  static const std::vector<uint64_t> fixed = [] {
    Rng rng(DeriveSeed(0, 99));
    std::vector<uint64_t> v(size_t{1} << 16);
    for (uint64_t& x : v) x = rng.Next();
    return v;
  }();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<uint64_t> v = fixed;
    const int64_t t0 = NowNs();
    std::sort(v.begin(), v.end());
    const double ns = static_cast<double>(NowNs() - t0);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(Outcome* out) = 0;
  virtual void Round(Tracer* tracer, RoundSample* sample, Outcome* out) = 0;
  /// Checks that need the whole run behind them.
  virtual void Finish(Outcome* /*out*/) {}
  /// How many leading rounds max_rank_error averages over.
  virtual size_t AccuracyRounds() const { return kAccuracyRounds; }
};

// --- paper-suite -------------------------------------------------------------

class PaperSuiteWorkload : public Workload {
 public:
  explicit PaperSuiteWorkload(const Options& options) : options_(options) {}

  /// The suite's worst error is a deterministic summary's (the GK family
  /// sits just under eps), so one round gives a steady figure.
  size_t AccuracyRounds() const override { return 1; }

  void Setup(Outcome* /*out*/) override {
    input_ = MpcatStream(Scaled(options_, kSuiteValues),
                         DeriveSeed(options_.seed, 1));
    exact_ = SortedMultiset(input_);
    grid_ = PhiGrid();
    probes_ = RankProbes(exact_, grid_);
  }

  void Round(Tracer* tracer, RoundSample* sample, Outcome* out) override {
    const std::vector<SuiteEntry>& suite = PaperSuite();
    std::vector<std::vector<uint64_t>> answers(suite.size());
    std::vector<std::vector<int64_t>> ranks(suite.size());
    sample->parts.assign(suite.size(), {});
    // The host's speed drifts within a round, so each summary's timings are
    // scaled by the reference sorts on either side of it.
    double before = ReferenceSortNs();
    for (size_t a = 0; a < suite.size(); ++a) {
      Part& part = sample->parts[a];
      const double cpu0 = CpuSeconds();
      sample->summary_bytes +=
          Summarise(suite[a], tracer, &part, &answers[a], &ranks[a], out);
      part.cpu_s = CpuSeconds() - cpu0;
      const double after = ReferenceSortNs();
      part.reference_ns = (before + after) / 2.0;
      before = after;
    }

    for (size_t a = 0; a < suite.size(); ++a) {
      sample->max_error = std::max(
          sample->max_error,
          out->verdict.CheckGrid(suite[a].name, exact_, grid_, answers[a],
                                 probes_, ranks[a], Slack(suite[a].name) * kEps));
    }
  }

 private:
  /// One summary's pass, inside its own span: builds it from the stream and
  /// answers the grid. Returns its MemoryBytes().
  double Summarise(const SuiteEntry& entry, Tracer* tracer, Part* part,
                   std::vector<uint64_t>* answers, std::vector<int64_t>* ranks,
                   Outcome* out) {
    Scope summary(tracer, entry.name);
    auto sketch = streamq::MakeSketch(
        SuiteConfig(entry.algorithm, DeriveSeed(options_.seed, 2)));
    const int64_t t0 = NowNs();
    for (size_t at = 0; at < input_.size(); at += kSpan) {
      const size_t take = std::min(kSpan, input_.size() - at);
      Scope span(tracer, "quantile.UpdateBatch");
      const size_t rejected =
          sketch->UpdateBatch(std::span<const uint64_t>(input_.data() + at, take));
      ++out->attempted;
      if (rejected != 0) ++out->failed;
    }
    part->ingest_s = static_cast<double>(NowNs() - t0) / 1e9;
    part->values = static_cast<double>(input_.size());
    for (const double phi : grid_) {
      Scope span(tracer, "quantile.Query");
      const int64_t q0 = NowNs();
      answers->push_back(sketch->Query(phi));
      part->query_us.push_back(ElapsedUs(q0));
      ++out->attempted;
    }
    for (const uint64_t probe : probes_) {
      Scope span(tracer, "quantile.EstimateRank");
      const int64_t r0 = NowNs();
      ranks->push_back(sketch->EstimateRank(probe));
      part->rank_us.push_back(ElapsedUs(r0));
      ++out->attempted;
    }
    return static_cast<double>(sketch->MemoryBytes());
  }

  Options options_;
  std::vector<uint64_t> input_;
  SortedMultiset exact_;
  std::vector<double> grid_;
  std::vector<uint64_t> probes_;
};

// --- helpers shared by the server workloads ----------------------------------

}  // namespace

net::CreateParams RandomStream(uint64_t seed, bool durable, uint32_t shards) {
  net::CreateParams params;
  params.algorithm = "Random";
  params.eps = kEps;
  params.log_universe = kLogUniverse;
  params.seed = seed;
  params.durable = durable;
  params.shards = shards;
  return params;
}

namespace {

/// Timed QUERY round trip; the answer is appended to `answers`.
void TimedQuery(net::StreamqClient& client, const std::string& stream,
                double phi, Tracer* tracer, RoundSample* sample,
                std::vector<uint64_t>* answers, Outcome* out) {
  Scope span(tracer, "net.QUERY");
  const int64_t t0 = NowNs();
  const net::NetResponse resp = client.Query(stream, phi);
  sample->parts[0].query_us.push_back(ElapsedUs(t0));
  Count(resp, "QUERY", out);
  answers->push_back(resp.value);
}

void TimedRank(net::StreamqClient& client, const std::string& stream,
               uint64_t probe, Tracer* tracer, RoundSample* sample,
               std::vector<int64_t>* ranks, Outcome* out) {
  Scope span(tracer, "net.RANK");
  const int64_t t0 = NowNs();
  const net::NetResponse resp = client.Rank(stream, probe);
  sample->parts[0].rank_us.push_back(ElapsedUs(t0));
  Count(resp, "RANK", out);
  ranks->push_back(resp.rank);
}

// --- server-durable-ingest ---------------------------------------------------

class DurableIngestWorkload : public Workload {
 public:
  explicit DurableIngestWorkload(const Options& options)
      : options_(options) {}

  void Setup(Outcome* out) override {
    input_ = MpcatStream(Scaled(options_, kDurableValues),
                         DeriveSeed(options_.seed, 3));
    const size_t group = kFramesPerFlush * kSpan;
    SortedMultiset acc;
    for (size_t at = 0; at < input_.size(); at += group) {
      const size_t end = std::min(input_.size(), at + group);
      acc.Add(std::vector<uint64_t>(input_.begin() + static_cast<std::ptrdiff_t>(at),
                                    input_.begin() + static_cast<std::ptrdiff_t>(end)));
      prefixes_.push_back(acc);
    }
    grid_ = PhiGrid();
    probes_ = RankProbes(prefixes_.back(), grid_);
    Start(out);
  }

  void Round(Tracer* tracer, RoundSample* sample, Outcome* out) override {
    if (client_ == nullptr) return;
    net::StreamqClient& client = *client_;
    if (!stream_.empty()) Count(client.Drop(stream_), "DROP", out);
    sample->parts[0].reference_ns = ReferenceSortNs();
    // Every round is a fresh stream with its own sketch seed, so rounds are
    // independent replicas of the same work.
    params_ = RandomStream(DeriveSeed(options_.seed, 4) + round_, true, 0);
    stream_ = "d" + std::to_string(round_++);
    Count(client.Create(stream_, params_), "CREATE", out);

    struct Probe {
      size_t group;
      size_t grid_index;
    };
    std::vector<Probe> probes;
    std::vector<uint64_t> mid_answers;
    std::vector<int64_t> mid_ranks;
    const size_t group = kFramesPerFlush * kSpan;
    const double cpu0 = CpuSeconds();
    for (size_t g = 0; g * group < input_.size(); ++g) {
      const size_t at = g * group;
      const size_t end = std::min(input_.size(), at + group);
      const int64_t t0 = NowNs();
      {
        Scope ingest(tracer, "ingest.group", g + 1);
        SendBatches(client, stream_, input_.data() + at, end - at, kWindow,
                    tracer, out);
        Scope flush(tracer, "net.FLUSH", g + 1);
        const net::NetResponse ack = client.Flush(stream_);
        if (Count(ack, "FLUSH", out)) {
          out->verdict.CheckEqual("durable_seq after FLUSH", ack.value, end);
        }
      }
      sample->parts[0].ingest_s += static_cast<double>(NowNs() - t0) / 1e9;
      for (size_t j = 0; j < kProbesPerFlush; ++j) {
        const size_t i = (g * kProbesPerFlush + j * 25) % grid_.size();
        probes.push_back({g, i});
        TimedQuery(client, stream_, grid_[i], tracer, sample, &mid_answers, out);
        TimedRank(client, stream_, probes_[i], tracer, sample, &mid_ranks, out);
      }
    }
    const net::NetResponse stats = client.Stats(stream_);
    if (Count(stats, "STATS", out)) {
      out->verdict.CheckEqual("STATS count", stats.stats.count, input_.size());
      out->verdict.CheckEqual("STATS durable_seq", stats.stats.durable_seq,
                              input_.size());
    }
    grid_answers_.clear();
    grid_ranks_.clear();
    for (size_t i = 0; i < grid_.size(); ++i) {
      TimedQuery(client, stream_, grid_[i], tracer, sample, &grid_answers_, out);
      TimedRank(client, stream_, probes_[i], tracer, sample, &grid_ranks_, out);
    }
    sample->parts[0].cpu_s = CpuSeconds() - cpu0;
    sample->parts[0].values = static_cast<double>(input_.size());
    if (auto* pipeline = fixture_->server().FindStream(stream_)) {
      sample->summary_bytes = static_cast<double>(pipeline->PeakMemoryBytes());
    }

    const double budget = Slack("Random") * kEps;
    for (size_t k = 0; k < probes.size(); ++k) {
      const SortedMultiset& exact = prefixes_[probes[k].group];
      const size_t i = probes[k].grid_index;
      out->verdict.CheckQuantile("durable QUERY", exact, grid_[i],
                                 mid_answers[k], budget);
      out->verdict.CheckRank("durable RANK", exact, probes_[i], mid_ranks[k],
                             budget);
    }
    sample->max_error = out->verdict.CheckGrid("durable grid", prefixes_.back(), grid_,
                                               grid_answers_, probes_, grid_ranks_,
                                               budget);
  }

  void Finish(Outcome* out) override {
    if (client_ == nullptr || stream_.empty()) return;
    // Restart on the same storage: recovery must give back the same count
    // and the same answers.
    const std::vector<uint64_t> answers = grid_answers_;
    const std::vector<int64_t> ranks = grid_ranks_;
    Start(out);
    if (client_ == nullptr) return;
    Count(client_->Create(stream_, params_), "CREATE after restart", out);
    const net::NetResponse stats = client_->Stats(stream_);
    if (Count(stats, "STATS after restart", out)) {
      out->verdict.CheckEqual("recovered count", stats.stats.count,
                              input_.size());
    }
    for (size_t i = 0; i < grid_.size(); ++i) {
      const net::NetResponse q = client_->Query(stream_, grid_[i]);
      const net::NetResponse r = client_->Rank(stream_, probes_[i]);
      if (Count(q, "QUERY after restart", out)) {
        out->verdict.CheckEqual("QUERY after restart", q.value, answers[i]);
      }
      if (Count(r, "RANK after restart", out)) {
        out->verdict.CheckEqual("RANK after restart",
                                static_cast<uint64_t>(r.rank),
                                static_cast<uint64_t>(ranks[i]));
      }
    }
  }

 private:
  /// (Re)starts the server on the run's storage, which outlives it.
  void Start(Outcome* out) {
    client_.reset();
    fixture_.reset();
    net::ServerOptions server_options;
    server_options.storage = &storage_;
    server_options.data_dir = "durable";
    fixture_ = std::make_unique<ServerFixture>(std::move(server_options));
    client_ = fixture_->Connect();
    if (client_ == nullptr) out->verdict.Fail("cannot connect to the server");
  }

  Options options_;
  net::CreateParams params_;
  std::vector<uint64_t> input_;
  std::vector<SortedMultiset> prefixes_;  // exact state after each FLUSH
  std::vector<double> grid_;
  std::vector<uint64_t> probes_;
  streamq::durability::MemStorage storage_;
  std::unique_ptr<ServerFixture> fixture_;
  std::unique_ptr<net::StreamqClient> client_;
  uint64_t round_ = 0;
  std::string stream_;
  std::vector<uint64_t> grid_answers_;
  std::vector<int64_t> grid_ranks_;
};

// --- server-query-mix --------------------------------------------------------

class QueryMixWorkload : public Workload {
 public:
  explicit QueryMixWorkload(const Options& options) : options_(options) {}

  void Setup(Outcome* out) override {
    preload_ = MpcatStream(Scaled(options_, kPreloadValues),
                           DeriveSeed(options_.seed, 5));
    base_ = SortedMultiset(preload_);
    for (int c = 0; c < kCyclesPerRound; ++c) {
      batches_.push_back(MpcatStream(
          kSpan, DeriveSeed(options_.seed, 1'000'000 + static_cast<uint64_t>(c))));
    }
    grid_ = PhiGrid();
    probes_ = RankProbes(base_, grid_);
    net::ServerOptions server_options;
    server_options.audit = true;
    fixture_ = std::make_unique<ServerFixture>(std::move(server_options));
    client_ = fixture_->Connect();
    if (client_ == nullptr) out->verdict.Fail("cannot connect to the server");
  }

  void Round(Tracer* tracer, RoundSample* sample, Outcome* out) override {
    if (client_ == nullptr) return;
    net::StreamqClient& client = *client_;
    if (streams_ > 0) Count(client.Drop(kStream), "DROP", out);
    sample->parts[0].reference_ns = ReferenceSortNs();
    Preload(out);
    uint64_t sent = preload_.size();
    std::vector<uint64_t> answers;
    std::vector<int64_t> ranks;
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    int64_t last_flush = t0;
    for (int c = 0; c < kCyclesPerRound; ++c) {
      Scope span(tracer, "cycle", static_cast<uint64_t>(c) + 1);
      {
        Scope insert(tracer, "net.BATCH_INSERT", static_cast<uint64_t>(c) + 1);
        Count(client.InsertBatch(kStream, batches_[static_cast<size_t>(c)]),
              "BATCH_INSERT", out);
      }
      sent += kSpan;
      {
        Scope flush(tracer, "net.FLUSH", static_cast<uint64_t>(c) + 1);
        const net::NetResponse ack = client.Flush(kStream);
        if (Count(ack, "FLUSH", out)) {
          out->verdict.CheckEqual("FLUSH ack", ack.value, sent);
        }
      }
      last_flush = NowNs();
      const std::vector<size_t> indices = CycleGrid(c);
      for (const size_t i : indices) {
        TimedQuery(client, kStream, grid_[i], tracer, sample, &answers, out);
      }
      for (const size_t i : indices) {
        TimedRank(client, kStream, probes_[i], tracer, sample, &ranks, out);
      }
      if (c % kAuditEvery == kAuditEvery - 1) {
        Scope audit(tracer, "net.AUDIT", static_cast<uint64_t>(c) + 1);
        const net::NetResponse report = client.Audit(kStream);
        if (Count(report, "AUDIT", out) && !report.audit.valid) {
          out->verdict.Fail("AUDIT round could not judge the stream");
        }
      }
    }
    sample->parts[0].cpu_s = CpuSeconds() - cpu0;
    sample->parts[0].ingest_s = static_cast<double>(last_flush - t0) / 1e9;
    sample->parts[0].values = static_cast<double>(kCyclesPerRound * kSpan);
    const net::NetResponse stats = client.Stats(kStream);
    if (Count(stats, "STATS", out)) {
      out->verdict.CheckEqual("STATS count", stats.stats.count, sent);
    }
    if (auto* pipeline = fixture_->server().FindStream(kStream)) {
      sample->summary_bytes = static_cast<double>(pipeline->PeakMemoryBytes());
    }

    // Every answer was given after its cycle's FLUSH, so it is checked
    // against exactly the values sent up to that cycle.
    const double budget = Slack("Random") * kEps;
    SortedMultiset exact = base_;
    for (int c = 0; c < kCyclesPerRound; ++c) {
      exact.Add(batches_[static_cast<size_t>(c)]);
      std::vector<double> phis;
      std::vector<uint64_t> probes;
      for (const size_t i : CycleGrid(c)) {
        phis.push_back(grid_[i]);
        probes.push_back(probes_[i]);
      }
      const auto from = static_cast<std::ptrdiff_t>(c * kQueriesPerCycle);
      const auto to = from + kQueriesPerCycle;
      sample->max_error = std::max(
          sample->max_error,
          out->verdict.CheckGrid(
              "mix cycle " + std::to_string(c), exact, phis,
              std::vector<uint64_t>(answers.begin() + from, answers.begin() + to),
              probes, std::vector<int64_t>(ranks.begin() + from, ranks.begin() + to),
              budget));
    }
  }

 private:
  static constexpr const char* kStream = "mix";

  /// Creates the stream with the next sketch seed and preloads it, untimed:
  /// every round is an independent replica of the same work.
  void Preload(Outcome* out) {
    net::StreamqClient& client = *client_;
    Count(client.Create(kStream, RandomStream(DeriveSeed(options_.seed, 6) + streams_,
                                              false, 1)),
          "CREATE", out);
    ++streams_;
    SendBatches(client, kStream, preload_.data(), preload_.size(), kWindow,
                nullptr, out);
    const net::NetResponse ack = client.Flush(kStream);
    if (Count(ack, "FLUSH", out)) {
      out->verdict.CheckEqual("FLUSH after preload", ack.value, preload_.size());
    }
  }

  /// A cycle's probes in increasing phi; the eight cycles of a round cover
  /// all 99 grid points.
  static std::vector<size_t> CycleGrid(int cycle) {
    std::vector<size_t> indices;
    for (int j = 0; j < kQueriesPerCycle; ++j) {
      indices.push_back(static_cast<size_t>(cycle + 8 * j) % 99);
    }
    std::sort(indices.begin(), indices.end());
    return indices;
  }

  Options options_;
  std::vector<uint64_t> preload_;
  SortedMultiset base_;  // the preload, sorted
  std::vector<std::vector<uint64_t>> batches_;  // one per cycle of a round
  std::vector<double> grid_;
  std::vector<uint64_t> probes_;
  std::unique_ptr<ServerFixture> fixture_;
  std::unique_ptr<net::StreamqClient> client_;
  uint64_t streams_ = 0;  // streams created so far
};

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "paper-suite") {
    return std::make_unique<PaperSuiteWorkload>(options);
  }
  if (options.workload == "server-durable-ingest") {
    return std::make_unique<DurableIngestWorkload>(options);
  }
  if (options.workload == "server-query-mix") {
    return std::make_unique<QueryMixWorkload>(options);
  }
  return nullptr;
}

/// Runs timed rounds until `seconds` have passed, and at least kMinRounds
/// of them and enough for the accuracy figure. With `tracer`, rounds
/// alternate untraced / traced; traced ones land in `traced`.
void TimedRounds(Workload& workload, double seconds, Tracer* tracer,
                 std::vector<RoundSample>* plain,
                 std::vector<RoundSample>* traced, Outcome* out) {
  const int64_t until = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const size_t min_rounds =
      std::max(kMinRounds, workload.AccuracyRounds() - 1);
  while (plain->size() < min_rounds || NowNs() < until) {
    plain->emplace_back();
    workload.Round(nullptr, &plain->back(), out);
    if (tracer != nullptr) {
      traced->emplace_back();
      workload.Round(tracer, &traced->back(), out);
    }
  }
}

/// `rounds` with every timing scaled to the reference speed.
std::vector<RoundSample> AtReferenceSpeed(std::vector<RoundSample> rounds) {
  for (RoundSample& r : rounds) r.ToReferenceSpeed();
  return rounds;
}

/// A round's values summarised per second of its timed phases.
double RoundRate(const RoundSample& r) {
  double values = 0.0;
  double seconds = 0.0;
  for (const Part& part : r.parts) {
    values += part.values;
    seconds += part.ingest_s;
  }
  return values / seconds;
}

double IngestRate(const std::vector<RoundSample>& rounds) {
  std::vector<double> rates;
  for (const RoundSample& r : rounds) rates.push_back(RoundRate(r));
  return Median(rates);
}

/// Each part's p-th percentile latency, its samples pooled over the
/// rounds, then the geometric mean over the parts; with one part, just the
/// pooled percentile. Pooling the paper suite's nine summaries instead puts
/// p50 between two summaries whose latencies differ by more than 2x, where
/// a small shift in their mix moves it by a third.
double LatencyPercentile(const std::vector<RoundSample>& rounds,
                         std::vector<double> Part::*field, double p) {
  const size_t parts = rounds.front().parts.size();
  double log_sum = 0.0;
  for (size_t g = 0; g < parts; ++g) {
    std::vector<double> all;
    for (const RoundSample& r : rounds) {
      const std::vector<double>& samples = r.parts[g].*field;
      all.insert(all.end(), samples.begin(), samples.end());
    }
    log_sum += std::log(Percentile(std::move(all), p));
  }
  return std::exp(log_sum / static_cast<double>(parts));
}

}  // namespace

bool RunWorkload(const Options& options, Outcome* out) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) return false;

  if (options.trace) {
    // The ledger runs first, while the workload's server (and its shard
    // workers) does not exist yet, so the two never share the CPUs.
    Tracer tracer;
    RunLedger(options, &tracer, out);
    workload->Setup(out);
    RoundSample warm;
    workload->Round(nullptr, &warm, out);
    std::vector<RoundSample> plain;
    std::vector<RoundSample> traced;
    TimedRounds(*workload, options.seconds, &tracer, &plain, &traced, out);
    workload->Finish(out);
    plain = AtReferenceSpeed(std::move(plain));
    traced = AtReferenceSpeed(std::move(traced));
    const double plain_rate = IngestRate(plain);
    const double traced_rate = IngestRate(traced);
    const double plain_p50 = LatencyPercentile(plain, &Part::query_us, 50);
    const double traced_p50 = LatencyPercentile(traced, &Part::query_us, 50);
    std::fprintf(stderr,
                 "tracing overhead on %s: ingest %.0f -> %.0f values/s, "
                 "query p50 %.2f -> %.2f us (%zu spans kept, %llu dropped)\n",
                 options.workload.c_str(), plain_rate, traced_rate, plain_p50,
                 traced_p50, tracer.size(),
                 static_cast<unsigned long long>(tracer.dropped()));
    out->metrics.push_back({"trace.ingest_slowdown", plain_rate / traced_rate, "ratio"});
    out->metrics.push_back({"trace.query_p50_slowdown", traced_p50 / plain_p50, "ratio"});
    if (!options.trace_file.empty() && !tracer.WriteChromeJson(options.trace_file)) {
      out->verdict.Fail("cannot write " + options.trace_file);
    }
    return true;
  }

  // Set-up is one cold pass, not a median over rounds: each run's lands in
  // whichever speed the host has then. So it is scaled by a reference sort
  // made just before it, while no other thread exists; the sort is not part
  // of the set-up time.
  const int64_t reference_start = NowNs();
  const double setup_reference_ns = ReferenceSortNs();
  const int64_t reference_ns = NowNs() - reference_start;
  workload->Setup(out);
  const double setup_measured_s =
      static_cast<double>(NowNs() - options.start_ns - reference_ns) / 1e9;
  const double setup_s = setup_measured_s * kReferenceSortNs / setup_reference_ns;
  RoundSample first;
  workload->Round(nullptr, &first, out);
  std::vector<RoundSample> measured;
  TimedRounds(*workload, options.seconds, nullptr, &measured, nullptr, out);
  workload->Finish(out);
  const std::vector<RoundSample> timed = AtReferenceSpeed(measured);

  std::vector<double> cpu;
  for (const RoundSample& r : timed) cpu.push_back(r.CpuTotal());
  // The warm-up round and the first timed ones: the same rounds on every
  // run of a seed.
  double error_sum = first.max_error;
  for (size_t r = 0; r + 1 < workload->AccuracyRounds(); ++r) {
    error_sum += timed[r].max_error;
  }
  out->metrics = {
      {"ingest_values_per_s", IngestRate(timed), "values/s"},
      {"query_p50_us", LatencyPercentile(timed, &Part::query_us, 50), "us"},
      {"query_p90_us", LatencyPercentile(timed, &Part::query_us, 90), "us"},
      {"rank_p50_us", LatencyPercentile(timed, &Part::rank_us, 50), "us"},
      {"summary_bytes", first.summary_bytes, "bytes"},
      {"max_rank_error", error_sum / static_cast<double>(workload->AccuracyRounds()),
       "fraction"},
      {"cpu_s", Median(cpu), "s"},
      {"setup_s", setup_s, "s"},
  };
  // The same figures as measured, before any scaling, for the reader.
  std::vector<double> rates;
  std::vector<double> reference_ms;
  for (const RoundSample& r : measured) {
    rates.push_back(RoundRate(r));
    for (const Part& part : r.parts) {
      reference_ms.push_back(part.reference_ns / 1e6);
    }
  }
  std::fprintf(stderr,
               "%s: %zu timed rounds after one warm-up round; as measured: "
               "ingest values/s per round min %.4g, quartiles %.4g %.4g %.4g, "
               "max %.4g; query p50 %.4g us, rank p50 %.4g us\n",
               options.workload.c_str(), measured.size(),
               *std::min_element(rates.begin(), rates.end()),
               Percentile(rates, 25), Percentile(rates, 50), Percentile(rates, 75),
               *std::max_element(rates.begin(), rates.end()),
               LatencyPercentile(measured, &Part::query_us, 50),
               LatencyPercentile(measured, &Part::rank_us, 50));
  std::fprintf(stderr, "set-up %.4g s as measured, reference sort %.4g ms before it\n",
               setup_measured_s, setup_reference_ns / 1e6);
  std::fprintf(stderr, "reference sort %.4g..%.4g ms, timings scaled to %.4g ms\n",
               *std::min_element(reference_ms.begin(), reference_ms.end()),
               *std::max_element(reference_ms.begin(), reference_ms.end()),
               kReferenceSortNs / 1e6);
  return true;
}

}  // namespace perfbench
