#include "obs/query_log.h"

#include <algorithm>

#include "common/json_writer.h"
#include "obs/metrics.h"

namespace opd::obs {

std::string QueryRecord::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("tenant").String(tenant);
  w.Key("ticket").UInt(ticket);
  w.Key("admission_epoch").UInt(admission_epoch);
  w.Key("publish_epoch").UInt(publish_epoch);
  w.Key("queue_wait_s").Double(queue_wait_s);
  w.Key("wall_time_s").Double(wall_time_s);
  w.Key("exec_time_s").Double(exec_time_s);
  w.Key("rows_in").UInt(rows_in);
  w.Key("rows_out").UInt(rows_out);
  w.Key("jobs").UInt(jobs);
  w.Key("views_used").UInt(views_used);
  w.Key("cross_tenant_views").UInt(cross_tenant_views);
  w.Key("views_published").UInt(views_published);
  w.Key("recycle_hits").UInt(recycle_hits);
  w.Key("rewrite").BeginObject();
  w.Key("candidates").UInt(rw_candidates);
  w.Key("accepted").UInt(rw_accepted);
  w.Key("signature_mismatch").UInt(rw_signature_mismatch);
  w.Key("afk_containment").UInt(rw_afk_containment);
  w.Key("not_cost_improving").UInt(rw_not_cost_improving);
  w.Key("pruned_by_bound").UInt(rw_pruned_by_bound);
  w.EndObject();
  w.Key("max_residual_pct").Double(max_residual_pct);
  w.Key("status").String(status);
  if (!error.empty()) w.Key("error").String(error);
  w.Key("query").String(query);
  w.EndObject();
  return w.Take();
}

QueryLog::QueryLog(const Options& options)
    : options_(options), slots_(options.capacity > 0 ? options.capacity : 1) {
  if (!options_.jsonl_path.empty()) {
    sink_.open(options_.jsonl_path, std::ios::out | std::ios::app);
  }
}

void QueryLog::Append(const QueryRecord& record) {
  auto rec = std::make_shared<const QueryRecord>(record);
  const std::string line =
      options_.jsonl_path.empty() ? std::string() : record.ToJson();
  bool overwrote = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const QueryRecord>& slot =
        slots_[next_seq_++ % slots_.size()];
    overwrote = slot != nullptr;
    // A reader holding the overwritten record keeps it alive.
    slot = std::move(rec);
    if (sink_.is_open()) sink_ << line << "\n" << std::flush;
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
  if (overwrote) dropped_.fetch_add(1, std::memory_order_relaxed);
  if (options_.registry != nullptr) {
    options_.registry->counter("server.querylog.appended").Inc();
    if (overwrote) options_.registry->counter("server.querylog.dropped").Inc();
  }
}

void QueryLog::CaptureSlow(SlowQueryProfile profile) {
  const size_t bytes = profile.ByteSize();
  uint64_t evicted = 0;
  size_t bytes_now = 0;
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    profiles_.push_back(std::move(profile));
    profile_bytes_ += bytes;
    while (profile_bytes_ > kSlowCaptureBudgetBytes &&
           !profiles_.empty()) {
      profile_bytes_ -= profiles_.front().ByteSize();
      profiles_.pop_front();
      ++evicted;
    }
    bytes_now = profile_bytes_;
  }
  slow_captured_.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) slow_evicted_.fetch_add(evicted, std::memory_order_relaxed);
  if (options_.registry != nullptr) {
    options_.registry->counter("server.querylog.slow_captured").Inc();
    if (evicted > 0) {
      options_.registry->counter("server.querylog.slow_evicted").Inc(evicted);
    }
    options_.registry->gauge("server.querylog.capture_bytes")
        .Set(static_cast<double>(bytes_now));
  }
}

std::vector<std::shared_ptr<const QueryRecord>> QueryLog::Snapshot() const {
  std::vector<std::shared_ptr<const QueryRecord>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(slots_.size());
    for (const auto& rec : slots_) {
      if (rec != nullptr) out.push_back(rec);
    }
  }
  // Slots wrap, so slot order is not age order; tickets are monotone in
  // append order per log (the server appends in completion order), but the
  // stable age key across overwrites is the publish epoch — sort by it,
  // breaking ties (failed queries share a publish epoch) by ticket.
  std::sort(out.begin(), out.end(),
            [](const std::shared_ptr<const QueryRecord>& a,
               const std::shared_ptr<const QueryRecord>& b) {
              if (a->publish_epoch != b->publish_epoch) {
                return a->publish_epoch < b->publish_epoch;
              }
              return a->ticket < b->ticket;
            });
  return out;
}

std::shared_ptr<const QueryRecord> QueryLog::Find(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& rec : slots_) {
    if (rec != nullptr && rec->ticket == ticket) return rec;
  }
  return nullptr;
}

std::optional<SlowQueryProfile> QueryLog::FindProfile(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  // Newest first: if a ticket somehow repeats, prefer the latest capture.
  for (auto it = profiles_.rbegin(); it != profiles_.rend(); ++it) {
    if (it->ticket == ticket) return *it;
  }
  return std::nullopt;
}

QueryLog::Stats QueryLog::stats() const {
  Stats s;
  s.appended = appended_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.slow_captured = slow_captured_.load(std::memory_order_relaxed);
  s.slow_evicted = slow_evicted_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    s.capture_bytes = profile_bytes_;
  }
  return s;
}

}  // namespace opd::obs
