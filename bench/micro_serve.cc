// Serving-layer microbench: interleaved multi-tenant query streams against
// one opd::Server (shared DFS / catalog / ViewStore, admission control,
// snapshot-consistent view visibility — DESIGN.md §3).
//
// `micro_serve --json` prints two JSON lines; scripts/bench.sh appends
// both to BENCH_engine.json.
//
// The `serve_observed` record measures the continuous-observability tax:
// the same 4-tenant x 8-query interleaved pass runs with full
// observability (query-history ring + JSONL sink + SLO gauges + slow-query
// capture of the offending tail) and with the query log disabled
// (query_log_capacity = 0), as 15 alternating (observed, baseline) pairs
// of 8-round passes after an untimed warm-up. It carries `queries_per_sec` with
// observability on, `querylog_overhead_pct` (the median of the per-pair
// observed/baseline wall ratios, each pair also listed), the retained
// `slow_capture_bytes`, and the server's own `latency_p95_s` SLO gauge. `--check` (scripts/bench.sh)
// gates querylog_overhead_pct < 5.
//
// The `serve` record is the serving-layer throughput + correctness lane
// (4 tenants x 8 shuffled workload queries through Server::Connect
// handles). It carries `queries_per_sec` (wall-clock serving throughput),
// the `view_hit_rate` (fraction of queries whose executed plan scanned at
// least one opportunistic view), `cross_tenant_reuse` (queries that reused
// a view materialized by ANOTHER tenant), and the correctness receipt
// `outputs_match_serial_replay`: every query's output fingerprint must be
// byte-identical to a serial replay of the recorded schedule (publish-epoch
// order, admission epochs pinned) on a fresh, identically-seeded bed.
// `--check` (scripts/bench.sh) gates on the receipt and on
// cross_tenant_reuse >= 1.
//
// Without --json it prints the same numbers human-readably plus
// paper-shape checks.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/json_writer.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/table.h"
#include "storage/value.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

using namespace opd;  // NOLINT

namespace {

constexpr int kTenants = 4;
constexpr int kQueriesPerTenant = 8;

// Schema + rows, name excluded (it embeds the engine run counter, which
// differs between the concurrent pass and its serial replay).
uint64_t TableFingerprint(const storage::Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const storage::Column& col : t.schema().columns()) {
    HashCombine(&h, HashString(col.name));
    HashCombine(&h, static_cast<uint64_t>(col.type));
  }
  HashCombine(&h, t.num_rows());
  const storage::RowHash row_hash;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    HashCombine(&h, row_hash(t.row(i)));
  }
  return h;
}

workload::TestBedConfig BenchConfig() {
  workload::TestBedConfig config;
  config.data.n_tweets = 2000;
  config.data.n_checkins = 1200;
  config.data.n_locations = 200;
  config.data.n_users = 100;
  // Wall-clock-calibrated UDF scalars differ bed to bed; disable so the
  // replay bed makes identical rewrite decisions.
  config.calibrate_udfs = false;
  return config;
}

struct QueryRecord {
  std::string tenant;
  int analyst = 0;
  int version = 0;
  catalog::Epoch admission_epoch = 0;
  catalog::Epoch publish_epoch = 0;
  uint64_t fingerprint = 0;
  bool used_view = false;
  bool cross_tenant = false;
};

// Per-tenant shuffled (analyst, version) streams; seeded so every lane
// (observed, baseline, serve, replay) serves the identical workload.
std::vector<std::vector<std::pair<int, int>>> BuildStreams() {
  std::vector<std::vector<std::pair<int, int>>> streams(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    std::vector<std::pair<int, int>> all;
    for (int a = 1; a <= workload::kNumAnalysts; ++a) {
      for (int v = 1; v <= workload::kNumVersions; ++v) {
        all.emplace_back(a, v);
      }
    }
    std::mt19937 rng(7u + static_cast<unsigned>(t));
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(kQueriesPerTenant);
    streams[t] = std::move(all);
  }
  return streams;
}

// One interleaved pass over `bed`'s server; returns wall seconds. Outputs
// are discarded — this is the timing body of the observability-overhead
// lanes. Each tenant serves its stream `rounds` times: the overhead lanes
// use 8 rounds (~0.2 s per pass on 4 cores) because 2-round passes (~50 ms)
// gave per-pair ratios spread over ±40% and a median that crossed the 5%
// floor at random; the later rounds are the all-warm steady state where the
// query log is the only extra work.
double TimedPass(workload::TestBed& bed, int rounds) {
  Server& server = bed.session().server();
  const auto streams = BuildStreams();
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ClientSession client = server.Connect("tenant" + std::to_string(t));
      for (int round = 0; round < rounds; ++round) {
        for (const auto& [analyst, version] : streams[t]) {
          plan::Plan plan = bench::CheckResult(
              workload::BuildQuery(analyst, version), "BuildQuery");
          bench::CheckOk(client.Run(std::move(plan)).status(), "Server::Run");
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       wall_start)
      .count();
}

// The continuous-observability tax: full query history + slow capture +
// JSONL sink vs the query log disabled (capacity 0). Runs before the
// throughput/replay pass so the p95 read off the server's own SLO gauge
// (MetricRegistry::Global() is process-wide) covers only these lanes —
// all of which serve the identical query stream.
struct ObservedLane {
  int queries = 0;  // queries per timed pass (streams x rounds)
  double observed_wall_s = 0;
  double baseline_wall_s = 0;
  double overhead_pct = 0;
  std::vector<double> pair_overhead_pct;  // one per (observed, baseline) pair
  double latency_p95_s = 0;
  uint64_t querylog_appended = 0;
  uint64_t slow_captured = 0;
  uint64_t slow_capture_bytes = 0;
};

ObservedLane RunObservedLane() {
  const std::string jsonl =
      "/tmp/opd_micro_serve_querylog." +
      std::to_string(static_cast<unsigned long>(::getpid())) + ".jsonl";

  workload::TestBedConfig observed_cfg = BenchConfig();
  // Slow capture targets offending queries only (DESIGN.md §3): on this
  // workload the threshold catches the cold view-materializing queries
  // (tens of ms) while the warmed view-reading ones (single-digit ms)
  // stay cheap. Capture-everything (threshold 0) is the pathological
  // config and is exercised by tests, not by the perf gate.
  observed_cfg.session.server.slow_query_threshold_s = 0.05;
  observed_cfg.session.server.query_log_path = jsonl;

  workload::TestBedConfig baseline_cfg = BenchConfig();
  baseline_cfg.session.server.query_log_capacity = 0;  // log disabled

  ObservedLane lane;
  lane.observed_wall_s = 1e30;
  lane.baseline_wall_s = 1e30;
  constexpr int kRounds = 8;
  constexpr int kReps = 15;
  lane.queries = kTenants * kQueriesPerTenant * kRounds;
  // Untimed warm-up pass: absorbs first-touch costs (allocator, page
  // faults, lazy statics) that would otherwise land on whichever lane
  // runs first.
  {
    auto warm = bench::CheckResult(workload::TestBed::Create(baseline_cfg),
                                   "warmup TestBed::Create");
    TimedPass(*warm, 1);
  }
  // Pair adjacent passes so both lanes of a pair see the same machine
  // weather, and alternate which lane goes first so neither always pays
  // (or dodges) the second-run position. A stall corrupts one pair; the
  // median over the pairs discards it.
  std::vector<double> ratios;
  ratios.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    std::remove(jsonl.c_str());
    double observed_wall = 0;
    double baseline_wall = 0;
    auto run_observed = [&] {
      auto bed = bench::CheckResult(workload::TestBed::Create(observed_cfg),
                                    "observed TestBed::Create");
      observed_wall = TimedPass(*bed, kRounds);
      Server& server = bed->session().server();
      const obs::QueryLog::Stats stats = server.query_log()->stats();
      lane.querylog_appended = stats.appended;
      lane.slow_captured = stats.slow_captured;
      lane.slow_capture_bytes = stats.capture_bytes;
      lane.latency_p95_s = server.Introspect().global.latency_p95_s;
    };
    auto run_baseline = [&] {
      auto bed = bench::CheckResult(workload::TestBed::Create(baseline_cfg),
                                    "baseline TestBed::Create");
      baseline_wall = TimedPass(*bed, kRounds);
    };
    if (rep % 2 == 0) {
      run_observed();
      run_baseline();
    } else {
      run_baseline();
      run_observed();
    }
    lane.observed_wall_s = std::min(lane.observed_wall_s, observed_wall);
    lane.baseline_wall_s = std::min(lane.baseline_wall_s, baseline_wall);
    if (baseline_wall > 0) {
      ratios.push_back(observed_wall / baseline_wall);
      lane.pair_overhead_pct.push_back(100.0 * (ratios.back() - 1.0));
    }
  }
  std::remove(jsonl.c_str());
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    lane.overhead_pct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }
  return lane;
}

int RunServe(bool json) {
  const ObservedLane lane = RunObservedLane();

  auto bed = bench::CheckResult(workload::TestBed::Create(BenchConfig()),
                                "TestBed::Create");
  Server& server = bed->session().server();

  const auto streams = BuildStreams();

  std::mutex mu;
  std::vector<QueryRecord> records;
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ClientSession client = server.Connect("tenant" + std::to_string(t));
      for (const auto& [analyst, version] : streams[t]) {
        plan::Plan plan = bench::CheckResult(
            workload::BuildQuery(analyst, version), "BuildQuery");
        Result<RunResult> run = client.Run(std::move(plan));
        bench::CheckOk(run.status(), "Server::Run");
        QueryRecord rec;
        rec.tenant = run->tenant;
        rec.analyst = analyst;
        rec.version = version;
        rec.admission_epoch = run->admission_epoch;
        rec.publish_epoch = run->publish_epoch;
        rec.fingerprint = run->table ? TableFingerprint(*run->table) : 0;
        rec.used_view = !run->views_used.empty();
        for (const ViewUse& use : run->views_used) {
          if (!use.tenant.empty() && use.tenant != rec.tenant) {
            rec.cross_tenant = true;
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        records.push_back(std::move(rec));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const size_t total = records.size();
  size_t hits = 0;
  size_t cross = 0;
  for (const QueryRecord& rec : records) {
    hits += rec.used_view ? 1 : 0;
    cross += rec.cross_tenant ? 1 : 0;
  }
  const double qps = wall_s > 0 ? static_cast<double>(total) / wall_s : 0;
  const double hit_rate =
      total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0;

  // Serial replay oracle: fresh bed, publish-epoch order, pinned epochs.
  std::sort(records.begin(), records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.publish_epoch < b.publish_epoch;
            });
  auto replay_bed = bench::CheckResult(
      workload::TestBed::Create(BenchConfig()), "replay TestBed::Create");
  Server& replay = replay_bed->session().server();
  bool outputs_match = true;
  for (const QueryRecord& rec : records) {
    ClientSession client = replay.Connect(rec.tenant);
    plan::Plan plan = bench::CheckResult(
        workload::BuildQuery(rec.analyst, rec.version), "BuildQuery");
    RunOptions opts;
    opts.admission.pin_epoch = static_cast<int64_t>(rec.admission_epoch);
    Result<RunResult> run = client.Run(std::move(plan), opts);
    bench::CheckOk(run.status(), "replay Server::Run");
    if (run->publish_epoch != rec.publish_epoch || !run->table ||
        TableFingerprint(*run->table) != rec.fingerprint) {
      outputs_match = false;
      std::fprintf(stderr,
                   "serial replay diverged: %s A%dv%d @ epoch %llu\n",
                   rec.tenant.c_str(), rec.analyst, rec.version,
                   static_cast<unsigned long long>(rec.publish_epoch));
    }
  }

  const auto stats = server.admission_stats();
  if (json) {
    {
      JsonWriter w;
      w.BeginObject();
      w.Key("bench").String("micro_serve");
      w.Key("mode").String("serve_observed");
      w.Key("tenants").Int(kTenants);
      w.Key("queries").Int(lane.queries);
      w.Key("wall_s").Double(lane.observed_wall_s);
      w.Key("baseline_wall_s").Double(lane.baseline_wall_s);
      w.Key("queries_per_sec")
          .Double(lane.observed_wall_s > 0
                      ? lane.queries / lane.observed_wall_s
                      : 0.0);
      w.Key("querylog_overhead_pct").Double(lane.overhead_pct);
      w.Key("querylog_overhead_pct_pairs").BeginArray();
      for (double pct : lane.pair_overhead_pct) w.Double(pct);
      w.EndArray();
      w.Key("querylog_appended").UInt(lane.querylog_appended);
      w.Key("slow_captured").UInt(lane.slow_captured);
      w.Key("slow_capture_bytes").UInt(lane.slow_capture_bytes);
      w.Key("latency_p95_s").Double(lane.latency_p95_s);
      w.EndObject();
      std::printf("%s\n", w.Take().c_str());
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").String("micro_serve");
    w.Key("mode").String("serve");
    w.Key("tenants").Int(kTenants);
    w.Key("queries").UInt(total);
    w.Key("max_concurrent").Int(
        server.options().server.max_concurrent_queries);
    w.Key("wall_s").Double(wall_s);
    w.Key("queries_per_sec").Double(qps);
    w.Key("view_hit_rate").Double(hit_rate);
    w.Key("cross_tenant_reuse").UInt(cross);
    w.Key("admissions_queued").UInt(stats.queued);
    w.Key("views_in_store").UInt(server.views().size());
    w.Key("outputs_match_serial_replay").Bool(outputs_match);
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
  } else {
    bench::Header("micro_serve: multi-tenant serving throughput");
    std::printf("tenants %d x %d queries, max_concurrent=%d\n", kTenants,
                kQueriesPerTenant,
                server.options().server.max_concurrent_queries);
    std::printf("wall %.3fs  ->  %.1f queries/s (queued admissions: %llu)\n",
                wall_s, qps, static_cast<unsigned long long>(stats.queued));
    std::printf("view hit rate %.0f%%, cross-tenant reuse on %zu/%zu "
                "queries, %zu views in store\n",
                100.0 * hit_rate, cross, total, server.views().size());
    std::printf("full observability %.3fs vs log-off %.3fs -> %+.1f%% "
                "overhead (%llu records, %llu slow profiles / %llu bytes "
                "retained, p95 %.3fs)\n",
                lane.observed_wall_s, lane.baseline_wall_s,
                lane.overhead_pct,
                static_cast<unsigned long long>(lane.querylog_appended),
                static_cast<unsigned long long>(lane.slow_captured),
                static_cast<unsigned long long>(lane.slow_capture_bytes),
                lane.latency_p95_s);
    bench::ShapeCheck(outputs_match,
                      "interleaved outputs byte-identical to serial replay");
    bench::ShapeCheck(cross >= 1,
                      "at least one query reused another tenant's view");
    bench::ShapeCheck(lane.querylog_appended ==
                          static_cast<uint64_t>(lane.queries),
                      "observed lane logged every query exactly once");
  }
  return outputs_match && cross >= 1 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  return RunServe(json);
}
