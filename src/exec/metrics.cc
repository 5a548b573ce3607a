#include "exec/metrics.h"

#include <sstream>

#include "common/json_writer.h"
#include "exec/hash/flat_table.h"

namespace opd::exec {

ExecMetrics& ExecMetrics::operator+=(const ExecMetrics& other) {
  sim_time_s += other.sim_time_s;
  stats_time_s += other.stats_time_s;
  stats_wall_time_s += other.stats_wall_time_s;
  bytes_read += other.bytes_read;
  rows_read += other.rows_read;
  bytes_shuffled += other.bytes_shuffled;
  bytes_written += other.bytes_written;
  jobs += other.jobs;
  views_created += other.views_created;
  max_task_time_s += other.max_task_time_s;
  return *this;
}

std::string ExecMetrics::ToString() const {
  std::ostringstream os;
  os << "time=" << sim_time_s << "s (+stats " << stats_time_s << "s), jobs="
     << jobs << ", read=" << bytes_read << "B, shuffled=" << bytes_shuffled
     << "B, written=" << bytes_written << "B, views=" << views_created
     << ", max_task=" << max_task_time_s << "s, stats_wall="
     << stats_wall_time_s << "s";
  return os.str();
}

std::string ExecMetrics::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("sim_time_s").Double(sim_time_s);
  w.Key("stats_time_s").Double(stats_time_s);
  w.Key("stats_wall_time_s").Double(stats_wall_time_s);
  w.Key("total_time_s").Double(TotalTime());
  w.Key("bytes_read").UInt(bytes_read);
  w.Key("rows_read").UInt(rows_read);
  w.Key("bytes_shuffled").UInt(bytes_shuffled);
  w.Key("bytes_written").UInt(bytes_written);
  w.Key("bytes_manipulated").UInt(BytesManipulated());
  w.Key("jobs").Int(jobs);
  w.Key("views_created").Int(views_created);
  w.Key("max_task_time_s").Double(max_task_time_s);
  w.EndObject();
  return w.Take();
}

ExecCounters ExecCounters::Resolve(bool enabled) {
  ExecCounters c;
  if (!enabled) return c;
  auto& registry = obs::MetricRegistry::Global();
  c.ht_load = &registry.histogram("engine.hash.load_factor");
  c.ht_resizes = &registry.counter("engine.shuffle.ht_resizes");
  c.arena_bytes = &registry.counter("engine.shuffle.arena_bytes");
  c.probe_len = &registry.histogram("engine.shuffle.probe_len");
  c.recycle_hit = &registry.counter("engine.recycle.hit");
  c.recycle_miss = &registry.counter("engine.recycle.miss");
  c.recycle_insert = &registry.counter("engine.recycle.insert");
  c.recycle_evict = &registry.counter("engine.recycle.evict");
  c.recycle_bytes = &registry.gauge("engine.recycle.bytes");
  c.dict_values = &registry.counter("storage.dict.values");
  c.dict_entries = &registry.counter("storage.dict.entries");
  c.jobs = &registry.counter("engine.jobs");
  c.bytes_read = &registry.counter("engine.bytes_read");
  c.bytes_shuffled = &registry.counter("engine.bytes_shuffled");
  c.bytes_written = &registry.counter("engine.bytes_written");
  c.skew = &registry.histogram("engine.shuffle.skew");
  return c;
}

void ExecCounters::ObserveTable(size_t size, double load_factor,
                                const hash::FlatStats& s, size_t arena) const {
  if (ht_load != nullptr && size > 0) ht_load->Observe(load_factor);
  if (ht_resizes != nullptr && s.resizes > 0) ht_resizes->Inc(s.resizes);
  if (arena_bytes != nullptr && arena > 0) arena_bytes->Inc(arena);
  if (probe_len != nullptr && s.lookups > 0) {
    probe_len->Observe(1.0 + static_cast<double>(s.probe_steps) /
                                 static_cast<double>(s.lookups));
  }
}

}  // namespace opd::exec
