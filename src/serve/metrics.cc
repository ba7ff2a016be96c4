#include "src/serve/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/graph/traversal_workspace.h"

namespace grgad {
namespace {

/// Log-spaced latency bucket upper bounds (milliseconds); a final +inf
/// bucket catches the tail.
constexpr double kLatencyUppersMs[] = {1,   2,    5,    10,   25,   50,  100,
                                       250, 500,  1000, 2500, 5000, 10000};
constexpr size_t kNumLatencyUppers =
    sizeof(kLatencyUppersMs) / sizeof(kLatencyUppersMs[0]);

}  // namespace

ServeMetrics::ServeMetrics(size_t queue_capacity, size_t timeline_capacity)
    : queue_capacity_(queue_capacity),
      timeline_capacity_(timeline_capacity),
      latency_buckets_(kNumLatencyUppers + 1, 0) {}

void ServeMetrics::RecordAdmit(size_t queue_depth_after) {
  std::lock_guard<std::mutex> lock(mu_);
  ++admitted_;
  peak_depth_ = std::max(peak_depth_, queue_depth_after);
}

void ServeMetrics::RecordReject() {
  std::lock_guard<std::mutex> lock(mu_);
  ++rejected_;
}

void ServeMetrics::RecordBatch(size_t batch_size, size_t depth_at_drain,
                               double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  BatchSample sample{batches_, batch_size, depth_at_drain, seconds};
  ++batches_;
  max_batch_size_ = std::max(max_batch_size_, batch_size);
  batched_requests_ += batch_size;
  batch_exec_seconds_ += seconds;
  if (timeline_capacity_ == 0) return;
  if (timeline_.size() < timeline_capacity_) {
    timeline_.push_back(sample);
  } else {
    timeline_[timeline_next_] = sample;
  }
  timeline_next_ = (timeline_next_ + 1) % timeline_capacity_;
}

void ServeMetrics::RecordRequest(const std::string& op, const Status& status,
                                 double latency_seconds,
                                 const std::vector<StageTiming>& timings) {
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_;
  OpStats& op_stats = by_op_[op];
  ++op_stats.count;
  if (!status.ok()) {
    ++request_errors_;
    ++op_stats.errors;
  }
  for (const StageTiming& t : timings) {
    StageStats& stage = by_stage_[t.stage];
    ++stage.count;
    stage.seconds += t.seconds;
  }
  const double ms = latency_seconds * 1000.0;
  size_t bucket = 0;
  while (bucket < kNumLatencyUppers && ms > kLatencyUppersMs[bucket]) {
    ++bucket;
  }
  ++latency_buckets_[bucket];
  max_latency_ms_ = std::max(max_latency_ms_, ms);
  total_latency_ms_ += ms;
  op_stats.total_ms += ms;
}

void ServeMetrics::RecordMutation(bool applied, int fanout) {
  std::lock_guard<std::mutex> lock(mu_);
  ++mutations_;
  if (applied) ++mutations_applied_;
  fanout_total_ += static_cast<uint64_t>(fanout);
  fanout_max_ = std::max(fanout_max_, static_cast<uint64_t>(fanout));
}

void ServeMetrics::RecordRefresh(size_t dirty, size_t reused) {
  std::lock_guard<std::mutex> lock(mu_);
  ++refreshes_;
  refreshed_anchors_ += dirty;
  reused_anchors_ += reused;
}

void ServeMetrics::SetDurabilityEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  durability_enabled_ = enabled;
}

void ServeMetrics::RecordWalAppend(size_t bytes, bool fsynced) {
  std::lock_guard<std::mutex> lock(mu_);
  ++wal_appends_;
  wal_bytes_ += bytes;
  if (fsynced) ++fsyncs_;
}

void ServeMetrics::RecordWalSync() {
  std::lock_guard<std::mutex> lock(mu_);
  ++fsyncs_;
}

void ServeMetrics::RecordSnapshot(uint64_t wal_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshots_;
  wal_seq_ = wal_seq;
}

void ServeMetrics::RecordRecovery(size_t replayed, size_t truncated,
                                  const std::string& note) {
  std::lock_guard<std::mutex> lock(mu_);
  replayed_records_ += replayed;
  truncated_tail_records_ += truncated;
  if (!note.empty()) last_durability_error_ = note;
}

void ServeMetrics::RecordDurabilityError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  ++durability_errors_;
  last_durability_error_ = status.ToString();
}

void ServeMetrics::WriteJson(JsonWriter* w, size_t queue_depth,
                             const MatrixArena* arena) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginObject().Key("schema").String("grgad-serve-metrics-v3");

  w->Key("queue").BeginObject()
      .Key("capacity").Uint(queue_capacity_)
      .Key("depth").Uint(queue_depth)
      .Key("peak_depth").Uint(peak_depth_)
      .Key("admitted").Uint(admitted_)
      .Key("rejected").Uint(rejected_)
      .EndObject();

  w->Key("requests").BeginObject()
      .Key("total").Uint(requests_)
      .Key("errors").Uint(request_errors_)
      .Key("by_op").BeginObject();
  for (const auto& [op, stats] : by_op_) {
    w->Key(op).BeginObject()
        .Key("count").Uint(stats.count)
        .Key("errors").Uint(stats.errors)
        .Key("total_ms").Double(stats.total_ms)
        .EndObject();
  }
  w->EndObject().EndObject();

  const double mean_batch =
      batches_ > 0
          ? static_cast<double>(batched_requests_) / static_cast<double>(batches_)
          : 0.0;
  w->Key("batches").BeginObject()
      .Key("count").Uint(batches_)
      .Key("max_size").Uint(max_batch_size_)
      .Key("mean_size").Double(mean_batch)
      .Key("exec_seconds").Double(batch_exec_seconds_)
      .EndObject();

  // The last bucket's bound is +inf, which the writer renders as null.
  w->Key("latency_ms").BeginObject().Key("buckets").BeginArray();
  for (size_t i = 0; i < latency_buckets_.size(); ++i) {
    w->BeginObject()
        .Key("le").Double(i < kNumLatencyUppers ? kLatencyUppersMs[i]
                                                : HUGE_VAL)
        .Key("count").Uint(latency_buckets_[i])
        .EndObject();
  }
  w->EndArray()
      .Key("max_ms").Double(max_latency_ms_)
      .Key("total_ms").Double(total_latency_ms_)
      .EndObject();

  w->Key("stages").BeginObject();
  for (const auto& [stage, stats] : by_stage_) {
    w->Key(stage).BeginObject()
        .Key("count").Uint(stats.count)
        .Key("seconds").Double(stats.seconds)
        .EndObject();
  }
  w->EndObject();

  w->Key("mutations").BeginObject()
      .Key("total").Uint(mutations_)
      .Key("applied").Uint(mutations_applied_)
      .Key("fanout_total").Uint(fanout_total_)
      .Key("fanout_max").Uint(fanout_max_)
      .Key("refreshes").Uint(refreshes_)
      .Key("refreshed_anchors").Uint(refreshed_anchors_)
      .Key("reused_anchors").Uint(reused_anchors_)
      .EndObject();

  w->Key("durability").BeginObject()
      .Key("enabled").Bool(durability_enabled_)
      .Key("wal_appends").Uint(wal_appends_)
      .Key("wal_bytes").Uint(wal_bytes_)
      .Key("fsyncs").Uint(fsyncs_)
      .Key("snapshots").Uint(snapshots_)
      .Key("wal_seq").Uint(wal_seq_)
      .Key("replayed_records").Uint(replayed_records_)
      .Key("truncated_tail_records").Uint(truncated_tail_records_)
      .Key("errors").Uint(durability_errors_)
      .Key("last_error").String(last_durability_error_)
      .EndObject();

  w->Key("workspace").BeginObject()
      .Key("total_heap_allocs").Uint(TraversalWorkspace::TotalHeapAllocs())
      .EndObject();

  w->Key("arena").BeginObject();
  if (arena != nullptr) {
    const MatrixArena::Stats stats = arena->stats();
    w->Key("acquired").Uint(stats.acquired)
        .Key("reused").Uint(stats.reused)
        .Key("heap_allocs").Uint(stats.heap_allocs)
        .Key("released").Uint(stats.released)
        .Key("bytes_served").Uint(stats.bytes_served)
        .Key("heap_bytes").Uint(stats.heap_bytes);
  }
  w->EndObject();

  // Chronological ring dump: oldest surviving batch first.
  w->Key("timeline").BeginArray();
  const size_t n = timeline_.size();
  const size_t start = n < timeline_capacity_ ? 0 : timeline_next_;
  for (size_t i = 0; i < n; ++i) {
    const BatchSample& s = timeline_[(start + i) % n];
    w->BeginObject()
        .Key("batch").Uint(s.batch)
        .Key("size").Uint(s.size)
        .Key("depth_at_drain").Uint(s.depth_at_drain)
        .Key("seconds").Double(s.seconds)
        .EndObject();
  }
  w->EndArray().EndObject();
}

}  // namespace grgad
