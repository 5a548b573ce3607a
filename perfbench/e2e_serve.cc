// End-to-end serving benchmark: the paper's 8-analyst x 4-version workload
// sent as OQL text through opd::Server by a closed loop of 4 tenant clients.
//
//   e2e_serve --workload orig|evolve|warm --seed N --seconds S --trace 0|1
//
// Tenant t (0-based) owns analysts t+1 and t+5. In every round each tenant
// runs its two analysts' v1..v4 (version order kept, the interleaving of the
// two analysts drawn from the seed) and waits for each result before sending
// the next query. Rounds end on a barrier; work between rounds is untimed.
//
//   orig    every query runs with RunOptions::rewrite = false (the paper's
//           ORIG baseline). Views are never dropped, so the DFS keeps every
//           job output; a server serves one block of kRoundsPerBlock rounds
//           and is then replaced, untimed, which sizes the growth to the
//           machine.
//   evolve  the view store is emptied (untimed) before every round, then
//           each tenant's v1..v4 rewrite against whatever views exist,
//           other tenants' included.
//   warm    an untimed pass populates the store (part of set-up), then the
//           32 queries repeat, each answered from views.
//
// Settings that differ from the server defaults: UDF cost calibration is off
// (it is wall-clock-derived and would make rewrite decisions vary run to
// run), and the cost model's data_scale is the test bed's (the synthetic
// TWTR log models the paper's 800 GB log). The OQL text is
// oql::Print(workload::BuildQuery(a, v)).
//
// Every timed output is checked against a reference fingerprint computed in
// set-up from the unrewritten query on a fresh server.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (an
// untraced and a traced phase of S/2 seconds each; the layer times come from
// the spans ObsOptions::tracing records, the parse time from calling
// oql::ParseQuery on the same text). The last stdout line is
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// and the line before it is a record with the host fingerprint, the seed, the
// sample counts and the "where the time goes" table. Exit code 1 when any
// query fails or returns a wrong result, 2 on bad arguments.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "oql/parser.h"
#include "oql/printer.h"
#include "serve_lib.h"
#include "server/server.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

namespace {

constexpr int kTenants = 4;
constexpr int kSetupReps = 3;
// Latency percentiles and throughput are taken per block of rounds and the
// run reports their medians across blocks, so a stretch of slow machine time
// moves a few blocks, not the result. A block of 4 rounds holds 128 queries,
// every workload query 4 times, and keeps 12 samples beyond its p90.
constexpr int kRoundsPerBlock = 4;
constexpr int kMinBlocks = 3;
constexpr double kP90 = 0.90;
constexpr size_t kMinBeyondP90 = 10;
constexpr double kMB = 1024.0 * 1024.0;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_serve: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

enum class Workload { kOrig, kEvolve, kWarm };

struct Args {
  Workload workload = Workload::kOrig;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string git_sha = "unknown";
};

// One of the 32 workload queries, as the program receives it.
struct QuerySpec {
  int analyst = 0;
  int version = 0;
  std::string oql;
  uint64_t reference_fp = 0;
};

// Exclusive span time of one query, by layer (ms).
enum Layer {
  kQuerySelf,     // query span itself: optimize, publish, recycler sweep
  kRewriteSelf,   // rewrite span outside its rounds
  kRewriteRound,  // round:* spans
  kJobSelf,       // job:* outside its phases (finalize, DFS write)
  kMap,           // map + partition phases
  kPipeline,      // pipelined map phase
  kReduce,
  kStats,         // stats collection of each job output
  kUdfStage,      // stage:* outside its phases
  kOther,         // any span name not listed above
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "server.query_self_ms", "rewrite.self_ms", "rewrite.round_ms",
    "exec.job_self_ms",     "exec.map_ms",     "exec.pipeline_ms",
    "exec.reduce_ms",       "exec.stats_ms",   "exec.udf_stage_ms",
    "exec.other_ms"};

Layer LayerOf(const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (starts("query:")) return kQuerySelf;
  if (name == "rewrite") return kRewriteSelf;
  if (starts("round:")) return kRewriteRound;
  if (starts("job:")) return kJobSelf;
  if (name == "map" || name == "partition") return kMap;
  if (name == "pipeline") return kPipeline;
  if (name == "reduce") return kReduce;
  if (name == "stats") return kStats;
  if (starts("stage:")) return kUdfStage;
  return kOther;
}

// Everything observed about one query run through the server.
struct Sample {
  size_t query = 0;  // index into the workload's QuerySpecs
  // Held from the run until Settle() checks the output and harvests the
  // trace, which happens between rounds so the clients' clock excludes it.
  storage::TablePtr table;
  std::shared_ptr<obs::Trace> trace;
  double latency_ms = 0;
  bool failed = false;
  double queue_wait_ms = 0;
  uint64_t bytes_moved = 0;
  uint64_t rows_read = 0;
  int jobs = 0;
  int views_created = 0;
  double stats_wall_ms = 0;
  bool used_view = false;
  size_t candidates_considered = 0;
  size_t decisions = 0;
  size_t accepted = 0;
  uint64_t recycle_hits = 0;
  uint64_t recycle_misses = 0;
  // Traced phase only.
  double parse_ms = 0;
  double query_span_ms = 0;
  double layer_ms[kNumLayers] = {};
};

// Per-layer times of one traced query. Task spans are folded into the phase
// that runs them, so a phase's time is the wall time it kept the query busy.
void HarvestTrace(const obs::Trace& trace, Sample* s) {
  const std::vector<obs::SpanRecord> spans = trace.Sorted();
  std::vector<perfbench::SpanInterval> intervals;
  std::vector<Layer> layers;
  for (const obs::SpanRecord& rec : spans) {
    if (rec.cat == "task") continue;
    intervals.push_back({rec.id, rec.parent, rec.start_us,
                         rec.start_us + rec.dur_us});
    layers.push_back(LayerOf(rec.name));
    if (rec.parent == 0) s->query_span_ms += rec.dur_us / 1000.0;
  }
  const std::vector<double> self = perfbench::ExclusiveTimes(intervals);
  for (size_t i = 0; i < self.size(); ++i) {
    s->layer_ms[layers[i]] += self[i] / 1000.0;
  }
}

workload::TestBedConfig BedConfig(uint64_t seed, bool tracing) {
  workload::TestBedConfig config;
  config.data.seed = seed;
  config.calibrate_udfs = false;
  config.session.obs.tracing = tracing;
  return config;
}

// The counters a serving bed accumulates, read between rounds.
struct BedCounters {
  storage::DfsMetrics dfs;
  exec::hash::RecyclerStats recycle;
  uint64_t dfs_used = 0;
};

long ProcStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) return std::atol(line.c_str() + len);
  }
  return 0;
}

BedCounters ReadCounters(workload::TestBed& bed) {
  Server& server = bed.session().server();
  BedCounters c;
  c.dfs = server.dfs().metrics();
  c.recycle = server.recycler().stats();
  c.dfs_used = server.dfs().used_bytes();
  return c;
}

// Runs workload query `index` as `client`; Settle() checks it later.
Sample RunOne(ClientSession& client, const std::vector<QuerySpec>& queries,
              size_t index, const RunOptions& opts, bool traced) {
  const QuerySpec& q = queries[index];
  Sample s;
  s.query = index;
  if (traced) {
    const auto p0 = Clock::now();
    Result<plan::Plan> parsed = oql::ParseQuery(q.oql);
    s.parse_ms = Seconds(p0, Clock::now()) * 1000.0;
    if (!parsed.ok()) Die("ParseQuery: " + parsed.status().ToString());
  }
  const auto t0 = Clock::now();
  Result<RunResult> run = client.Run(q.oql, opts);
  s.latency_ms = Seconds(t0, Clock::now()) * 1000.0;
  if (!run.ok()) {
    std::fprintf(stderr, "A%dv%d failed: %s\n", q.analyst, q.version,
                 run.status().ToString().c_str());
    s.failed = true;
    return s;
  }
  s.table = run->table;
  s.trace = run->trace;
  s.queue_wait_ms = run->queue_wait_s * 1000.0;
  s.bytes_moved = run->metrics.BytesManipulated();
  s.rows_read = run->metrics.rows_read;
  s.jobs = run->metrics.jobs;
  s.views_created = run->metrics.views_created;
  s.stats_wall_ms = run->metrics.stats_wall_time_s * 1000.0;
  s.used_view = !run->views_used.empty();
  if (run->rewritten) {
    s.candidates_considered = run->rewrite.stats.candidates_considered;
    const rewrite::DecisionCounts counts = run->rewrite.decisions.Counts();
    s.decisions = counts.candidates;
    s.accepted = counts.accepted;
  }
  for (const exec::JobRun& jr : run->jobs) {
    s.recycle_hits += jr.recycle_hits;
    s.recycle_misses += jr.recycle_misses;
  }
  return s;
}

// Checks a sample's output against its reference fingerprint and harvests
// its trace, then drops both.
void Settle(Sample& s, const std::vector<QuerySpec>& queries) {
  const QuerySpec& q = queries[s.query];
  if (!s.failed && (s.table == nullptr ||
                    perfbench::OrderInsensitiveFingerprint(*s.table) !=
                        q.reference_fp)) {
    std::fprintf(stderr, "A%dv%d: output differs from the unrewritten "
                 "reference\n", q.analyst, q.version);
    s.failed = true;
  }
  if (s.trace != nullptr) HarvestTrace(*s.trace, &s);
  s.table.reset();
  s.trace.reset();
}

// The generated workload: one spec per (analyst, version), index
// (analyst-1)*kNumVersions + version-1.
size_t QueryIndex(int analyst, int version) {
  return static_cast<size_t>((analyst - 1) * workload::kNumVersions +
                             (version - 1));
}

std::vector<QuerySpec> PrintQueries() {
  std::vector<QuerySpec> queries;
  for (int a = 1; a <= workload::kNumAnalysts; ++a) {
    for (int v = 1; v <= workload::kNumVersions; ++v) {
      QuerySpec q;
      q.analyst = a;
      q.version = v;
      q.oql = Check(oql::Print(Check(workload::BuildQuery(a, v), "BuildQuery")),
                    "oql::Print");
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

// Reference fingerprints: every query unrewritten on a fresh server.
void ComputeReferences(uint64_t seed, std::vector<QuerySpec>* queries) {
  auto bed = Check(workload::TestBed::Create(BedConfig(seed, false)),
                   "reference TestBed::Create");
  Server& server = bed->session().server();
  RunOptions unrewritten;
  unrewritten.rewrite = false;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&] {
      ClientSession client = server.Connect("reference");
      for (size_t i = next++; i < queries->size(); i = next++) {
        QuerySpec& q = (*queries)[i];
        RunResult run = Check(client.Run(q.oql, unrewritten), "reference run");
        q.reference_fp = perfbench::OrderInsensitiveFingerprint(*run.table);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

struct Fixture {
  std::vector<QuerySpec> queries;
  std::unique_ptr<workload::TestBed> bed;
  uint64_t base_bytes = 0;
};

// Timed-loop state shared by the client threads.
struct Loop {
  const Args* args = nullptr;
  const std::vector<QuerySpec>* queries = nullptr;
  bool traced = false;
  double seconds = 0;
  std::unique_ptr<workload::TestBed> bed;
  uint64_t base_bytes = 0;  // DFS bytes of the base tables

  // Written only by the barrier's completion step (all clients parked).
  bool stop = false;
  uint64_t round = 0;
  int rounds_on_bed = 0;
  double timed_s = 0;
  double block_wall = 0;  // timed seconds of the current block so far
  std::vector<double> block_walls;
  std::vector<size_t> block_ends;  // samples index one past each block
  Clock::time_point round_start;
  BedCounters round_counters;
  // Totals over the timed rounds.
  uint64_t dfs_bytes_read = 0;
  uint64_t dfs_bytes_written = 0;
  uint64_t recycle_evictions = 0;
  std::vector<double> stored_ratios;  // DFS bytes over base-table bytes
  std::vector<double> dfs_growth_mb;  // rounds after a bed's first

  std::mutex mu;
  std::vector<Sample> samples;
  size_t settled = 0;  // samples[0, settled) are checked
  size_t untimed_failures = 0;
};

// One untimed round with rewriting, fills the warm workload's view store.
size_t PopulateRound(workload::TestBed& bed,
                     const std::vector<QuerySpec>& queries, uint64_t seed) {
  Server& server = bed.session().server();
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ClientSession client = server.Connect("tenant" + std::to_string(t));
      for (const auto& [a, v] : perfbench::TenantStream(seed, t, 0)) {
        Sample s = RunOne(client, queries, QueryIndex(a, v), {}, false);
        Settle(s, queries);
        failures += s.failed;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return failures;
}

// A fresh serving bed; `base_bytes` receives the DFS bytes of its base
// tables.
std::unique_ptr<workload::TestBed> ServingBed(const Args& args,
                                              const std::vector<QuerySpec>& q,
                                              bool tracing, size_t* failures,
                                              uint64_t* base_bytes) {
  auto bed = Check(workload::TestBed::Create(BedConfig(args.seed, tracing)),
                   "TestBed::Create");
  *base_bytes = bed->session().server().dfs().used_bytes();
  if (args.workload == Workload::kWarm) {
    *failures += PopulateRound(*bed, q, args.seed);
  }
  return bed;
}

Fixture SetUp(const Args& args, size_t* failures) {
  Fixture f;
  f.queries = PrintQueries();
  ComputeReferences(args.seed, &f.queries);
  f.bed = ServingBed(args, f.queries, false, failures, &f.base_bytes);
  return f;
}

// Between rounds (all clients parked on the barrier): close the round's
// books, decide whether to go on, and do the workload's untimed step.
void BetweenRounds(Loop& L) {
  const auto now = Clock::now();
  Server* server = &L.bed->session().server();
  if (L.round > 0) {
    const double wall = Seconds(L.round_start, now);
    L.timed_s += wall;
    L.block_wall += wall;
    for (; L.settled < L.samples.size(); ++L.settled) {
      Settle(L.samples[L.settled], *L.queries);
    }
    const BedCounters c = ReadCounters(*L.bed);
    L.dfs_bytes_read += c.dfs.bytes_read - L.round_counters.dfs.bytes_read;
    L.dfs_bytes_written +=
        c.dfs.bytes_written - L.round_counters.dfs.bytes_written;
    L.recycle_evictions +=
        c.recycle.evictions - L.round_counters.recycle.evictions;
    if (L.rounds_on_bed > 1) {
      L.dfs_growth_mb.push_back(
          (static_cast<double>(c.dfs_used) -
           static_cast<double>(L.round_counters.dfs_used)) / kMB);
    }
    const bool block_end = L.round % kRoundsPerBlock == 0;
    // orig's store grows through the block; the others' store is sized by
    // one round (evolve) or fixed (warm), so every round end is a sample.
    if (block_end || L.args->workload != Workload::kOrig) {
      L.stored_ratios.push_back(static_cast<double>(c.dfs_used) /
                                static_cast<double>(L.base_bytes));
    }
    if (block_end) {
      L.block_walls.push_back(L.block_wall);
      L.block_wall = 0;
      L.block_ends.push_back(L.samples.size());
      if (L.timed_s >= L.seconds && L.block_walls.size() >= kMinBlocks) {
        L.stop = true;
        return;
      }
      if (L.args->workload == Workload::kOrig) {
        // Replace the server, untimed: bounds the orphan growth per run.
        L.bed.reset();
        L.bed = ServingBed(*L.args, *L.queries, L.traced, &L.untimed_failures,
                           &L.base_bytes);
        L.rounds_on_bed = 0;
        server = &L.bed->session().server();
      }
    }
  }
  if (L.args->workload == Workload::kEvolve) {
    server->views().DropAll();
    server->dfs().DeletePrefix("views/");
  }
  ++L.round;
  ++L.rounds_on_bed;
  L.round_counters = ReadCounters(*L.bed);
  L.round_start = Clock::now();
}

// Runs the closed loop for `seconds` of timed rounds on `bed`.
void RunTimed(Loop& L) {
  RunOptions opts;
  opts.rewrite = L.args->workload != Workload::kOrig;
  std::barrier sync(kTenants, [&L]() noexcept { BetweenRounds(L); });
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      std::vector<Sample> mine;
      while (true) {
        sync.arrive_and_wait();
        if (L.stop) break;
        ClientSession client = L.bed->session().server().Connect(tenant);
        for (const auto& [a, v] :
             perfbench::TenantStream(L.args->seed, t, L.round)) {
          mine.push_back(
              RunOne(client, *L.queries, QueryIndex(a, v), opts, L.traced));
        }
        // Hand samples over before the barrier so BetweenRounds sees the
        // round's count.
        std::lock_guard<std::mutex> lock(L.mu);
        L.samples.insert(L.samples.end(), mine.begin(), mine.end());
        mine.clear();
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

// --- Reporting ---------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) Die("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double Mean(const std::vector<Sample>& samples, F f) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const Sample& s : samples) sum += static_cast<double>(f(s));
  return sum / static_cast<double>(samples.size());
}

template <typename F>
std::vector<double> Collect(const std::vector<Sample>& samples, F f) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(static_cast<double>(f(s)));
  return v;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

void WriteHost(JsonWriter& w, const Args& args) {
  w.Key("host").BeginObject();
  w.Key("nproc").Int(sysconf(_SC_NPROCESSORS_ONLN));
  w.Key("cpu_model").String(CpuModel());
  w.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w.Key("git_sha").String(args.git_sha);
  w.EndObject();
}

// Prints the record line and the result line; `correct` is false when a
// query failed or a consistency check of the run did not hold.
int Finish(const Args& args, size_t attempted, size_t failed, bool correct,
           const std::vector<Metric>& metrics,
           const std::function<void(JsonWriter&)>& record_body) {
  JsonWriter rec;
  rec.BeginObject();
  rec.Key("record").String("e2e_serve");
  rec.Key("workload").String(args.workload_name);
  rec.Key("seed").UInt(args.seed);
  rec.Key("trace").Bool(args.trace);
  WriteHost(rec, args);
  record_body(rec);
  rec.EndObject();
  std::printf("%s\n", rec.str().c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonWriter::Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " +
           JsonWriter::Quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Throughput and latency percentiles of each block of rounds.
struct Blocks {
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p90;
  size_t samples = 0;  // per block
  size_t p90_beyond = 0;  // fewest samples beyond p90 in any block
};

Blocks PerBlock(const Loop& L) {
  Blocks b;
  size_t begin = 0;
  for (size_t i = 0; i < L.block_ends.size(); ++i) {
    std::vector<double> lat;
    for (size_t j = begin; j < L.block_ends[i]; ++j) {
      lat.push_back(L.samples[j].latency_ms);
    }
    const perfbench::Percentile p90 = perfbench::NearestRank(lat, kP90);
    if (p90.beyond < kMinBeyondP90) Die("too few samples beyond p90");
    b.qps.push_back(static_cast<double>(lat.size()) / L.block_walls[i]);
    b.p50.push_back(perfbench::NearestRank(lat, 0.5).value);
    b.p90.push_back(p90.value);
    b.samples = lat.size();
    b.p90_beyond = i == 0 ? p90.beyond : std::min(b.p90_beyond, p90.beyond);
    begin = L.block_ends[i];
  }
  return b;
}

double Qps(const Loop& L) { return Median(PerBlock(L).qps); }

// Fields shared by both record kinds: run size and percentile sample counts.
void WriteRunShape(JsonWriter& w, const Loop& L) {
  w.Key("queries_per_run").UInt(L.samples.size());
  w.Key("rounds").UInt(L.round);
  w.Key("timed_s").Raw(Num(L.timed_s));
  w.Key("qps_overall")
      .Raw(Num(static_cast<double>(L.samples.size()) / L.timed_s));
  const Blocks b = PerBlock(L);
  w.Key("blocks").UInt(b.qps.size());
  w.Key("samples_per_block").UInt(b.samples);
  w.Key("p90_beyond_per_block").UInt(b.p90_beyond);
}

int ReportEndToEnd(const Args& args, const std::vector<double>& setup_times,
                   const Loop& L) {
  const std::vector<Sample>& S = L.samples;
  const Blocks b = PerBlock(L);
  size_t failed = L.untimed_failures;
  for (const Sample& s : S) failed += s.failed;
  const double n = static_cast<double>(S.size());

  std::vector<Metric> m;
  m.push_back({"qps", Median(b.qps), "1/s"});
  m.push_back({"latency_p50_ms", Median(b.p50), "ms"});
  m.push_back({"latency_p90_ms", Median(b.p90), "ms"});
  m.push_back({"setup_s", Median(setup_times), "s"});
  m.push_back({"peak_rss_mb", ProcStatusKb("VmHWM:") / 1024.0, "MB"});
  m.push_back({"stored_bytes_ratio", Median(L.stored_ratios),
               "ratio"});
  m.push_back({"dfs_mb_per_query",
               static_cast<double>(L.dfs_bytes_read + L.dfs_bytes_written) /
                   kMB / n,
               "MB"});

  const size_t attempted = S.size() + L.untimed_failures;
  return Finish(args, attempted, failed, failed == 0, m, [&](JsonWriter& w) {
    w.Key("setup_reps").Int(kSetupReps);
    w.Key("setup_s_each").BeginArray();
    for (double t : setup_times) w.Raw(Num(t));
    w.EndArray();
    WriteRunShape(w, L);
    w.Key("failed_frac").Raw(Num(static_cast<double>(failed) / n));
    w.Key("mb_moved_per_query")
        .Raw(Num(Mean(S, [](const Sample& s) { return s.bytes_moved; }) /
                 kMB));
    w.Key("dfs_growth_mb_per_round").Raw(Num(Median(L.dfs_growth_mb)));
  });
}

int ReportPerLayer(const Args& args, const Loop& plain, const Loop& L) {
  const std::vector<Sample>& S = L.samples;
  size_t failed = plain.untimed_failures + L.untimed_failures;
  for (const Loop* loop : {&plain, &L}) {
    for (const Sample& s : loop->samples) failed += s.failed;
  }
  const size_t attempted = plain.samples.size() + S.size() +
                           plain.untimed_failures + L.untimed_failures;
  const double n = static_cast<double>(S.size());
  Server& server = L.bed->session().server();

  const double latency = Mean(S, [](const Sample& s) { return s.latency_ms; });
  const double parse = Mean(S, [](const Sample& s) { return s.parse_ms; });
  double layer_mean[kNumLayers];
  double attributed = parse;
  for (int l = 0; l < kNumLayers; ++l) {
    layer_mean[l] = Mean(S, [l](const Sample& s) { return s.layer_ms[l]; });
    attributed += layer_mean[l];
  }
  const double overhead_mean = latency - attributed;
  // Self times partition each query span, so parse + spans may exceed the
  // client's latency only by timer granularity.
  constexpr double kAttributedTolerance = 1.01;
  const bool consistent = attributed <= kAttributedTolerance * latency;
  if (!consistent) {
    std::fprintf(stderr, "e2e_serve: layers sum to %.3f ms, client saw %.3f "
                 "ms\n", attributed, latency);
  }
  const double overhead_p50 = perfbench::NearestRank(
      Collect(S, [](const Sample& s) {
        return s.latency_ms - s.query_span_ms - s.parse_ms;
      }),
      0.5).value;

  uint64_t hits = 0, misses = 0, rows = 0;
  size_t decisions = 0, accepted = 0, views_created = 0, jobs = 0;
  double job_ms = 0;
  for (const Sample& s : S) {
    hits += s.recycle_hits;
    misses += s.recycle_misses;
    rows += s.rows_read;
    decisions += s.decisions;
    accepted += s.accepted;
    views_created += static_cast<size_t>(s.views_created);
    jobs += static_cast<size_t>(s.jobs);
  }
  for (int l = kJobSelf; l <= kUdfStage; ++l) job_ms += layer_mean[l] * n;
  const exec::hash::RecyclerStats rstats = server.recycler().stats();
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::vector<Metric> m;
  m.push_back({"server.queue_wait_ms",
               perfbench::NearestRank(
                   Collect(S, [](const Sample& s) { return s.queue_wait_ms; }),
                   0.5).value,
               "ms"});
  m.push_back({"server.overhead_ms", overhead_p50, "ms"});
  m.push_back({"oql.parse_ms", parse, "ms"});
  for (int l = 0; l < kNumLayers; ++l) {
    m.push_back({kLayerNames[l], layer_mean[l], "ms"});
  }
  m.push_back({"rewrite.candidates_per_query",
               Mean(S, [](const Sample& s) { return s.candidates_considered; }),
               "count"});
  m.push_back({"rewrite.accept_ratio",
               ratio(static_cast<double>(accepted),
                     static_cast<double>(decisions)),
               "ratio"});
  m.push_back({"rewrite.view_hit_rate",
               Mean(S, [](const Sample& s) { return s.used_view; }), "ratio"});
  m.push_back({"exec.jobs_per_query", static_cast<double>(jobs) / n, "count"});
  m.push_back({"exec.stats_wall_ms",
               Mean(S, [](const Sample& s) { return s.stats_wall_ms; }), "ms"});
  m.push_back({"exec.rows_per_s",
               ratio(static_cast<double>(rows), job_ms / 1000.0), "1/s"});
  m.push_back({"exec.mb_moved_per_query",
               Mean(S, [](const Sample& s) { return s.bytes_moved; }) / kMB,
               "MB"});
  m.push_back({"recycle.hit_ratio",
               ratio(static_cast<double>(hits),
                     static_cast<double>(hits + misses)),
               "ratio"});
  m.push_back({"recycle.mb", static_cast<double>(rstats.bytes) / kMB, "MB"});
  m.push_back({"recycle.evictions", static_cast<double>(L.recycle_evictions),
               "count"});
  m.push_back({"catalog.views", static_cast<double>(server.views().size()),
               "count"});
  m.push_back({"catalog.view_mb",
               static_cast<double>(server.views().TotalBytes()) / kMB, "MB"});
  m.push_back({"catalog.retained_frac",
               ratio(static_cast<double>(views_created),
                     static_cast<double>(jobs)),
               "ratio"});
  m.push_back({"dfs.written_mb_per_query",
               static_cast<double>(L.dfs_bytes_written) / kMB / n, "MB"});
  m.push_back({"dfs.used_mb",
               static_cast<double>(server.dfs().used_bytes()) / kMB, "MB"});
  m.push_back({"dfs.growth_mb_per_round", Median(L.dfs_growth_mb), "MB"});
  m.push_back({"obs.tracing_overhead_pct",
               100.0 * (ratio(Qps(plain), Qps(L)) - 1.0), "%"});
  m.push_back({"failed_frac",
               ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
               "ratio"});

  // "Where the time goes": mean per query, as a share of client latency.
  const bool correct = failed == 0 && consistent;
  return Finish(args, attempted, failed, correct, m, [&](JsonWriter& w) {
    WriteRunShape(w, L);
    w.Key("recycle_counts").BeginObject();
    w.Key("hits").UInt(hits);
    w.Key("misses").UInt(misses);
    w.EndObject();
    w.Key("decision_counts").BeginObject();
    w.Key("accepted").UInt(accepted);
    w.Key("candidates").UInt(decisions);
    w.EndObject();
    w.Key("latency_mean_ms").Raw(Num(latency));
    w.Key("share_pct").BeginObject();
    w.Key("oql.parse_ms").Raw(Num(100.0 * ratio(parse, latency)));
    for (int l = 0; l < kNumLayers; ++l) {
      w.Key(kLayerNames[l]).Raw(Num(100.0 * ratio(layer_mean[l], latency)));
    }
    w.Key("server.overhead_ms").Raw(Num(100.0 * ratio(overhead_mean, latency)));
    w.EndObject();
    // The spans plus the parse time must not claim more than the client saw.
    w.Key("attributed_pct").Raw(Num(100.0 * ratio(attributed, latency)));
  });
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload_name = val;
      if (val == "orig") {
        args->workload = Workload::kOrig;
      } else if (val == "evolve") {
        args->workload = Workload::kEvolve;
      } else if (val == "warm") {
        args->workload = Workload::kWarm;
      } else {
        return false;
      }
      have[0] = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
      have[1] = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(args->seconds > 0)) return false;
      have[2] = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      args->trace = val == "1";
      have[3] = true;
    } else if (key == "--git-sha") {
      args->git_sha = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_serve --workload orig|evolve|warm --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA]\n");
    return 2;
  }

  // Set-up, repeated so its time is a median: data generation and table
  // registration, OQL printing, reference fingerprints, and warm's populate
  // pass. The last repetition's serving bed is the one measured; failures
  // of every repetition count.
  size_t setup_failures = 0;
  std::vector<double> setup_times;
  Fixture fixture;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    fixture = Fixture{};
    const auto t0 = Clock::now();
    fixture = SetUp(args, &setup_failures);
    setup_times.push_back(Seconds(t0, Clock::now()));
  }

  Loop plain;
  plain.args = &args;
  plain.queries = &fixture.queries;
  plain.seconds = args.trace ? args.seconds / 2 : args.seconds;
  plain.bed = std::move(fixture.bed);
  plain.base_bytes = fixture.base_bytes;
  plain.untimed_failures = setup_failures;
  RunTimed(plain);
  if (!args.trace) return ReportEndToEnd(args, setup_times, plain);

  plain.bed.reset();
  Loop traced;
  traced.args = &args;
  traced.queries = &fixture.queries;
  traced.traced = true;
  traced.seconds = args.seconds / 2;
  traced.bed = ServingBed(args, fixture.queries, true,
                          &traced.untimed_failures, &traced.base_bytes);
  RunTimed(traced);
  return ReportPerLayer(args, plain, traced);
}
