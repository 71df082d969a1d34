#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

void Samples::AddFailed() {
  ms_.push_back(std::numeric_limits<double>::infinity());
}

double Samples::Percentile(double p) const {
  if (ms_.empty()) return 0.0;
  std::vector<double> v = ms_;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
  u.minor_faults = ru.ru_minflt;
  return u;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

uint64_t SpanLog::Begin(const char* name, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  Span s;
  // Ids are unique across threads: thread in the high half, 1-based
  // index in the low half (0 stays "no span").
  s.id = (uint64_t{thread_} << 32) | (spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
                   .count();
  spans_.push_back(s);
  return s.id;
}

void SpanLog::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[(id & 0xffffffffu) - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count();
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  // Children of one parent run on the parent's thread, one after
  // another, so their intervals do not overlap: the covered part of the
  // parent is the sum of their durations clipped to the parent.
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::map<uint64_t, int64_t> covered;
  for (const Span& s : spans) {
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = *it->second;
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[p.id] += hi - lo;
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    SelfTime& t = out[s.name];
    t.ms += (s.end_ns - s.start_ns - covered[s.id]) / 1e6;
    ++t.spans;
  }
  return out;
}

void LoopStats::Merge(const LoopStats& o) {
  queries.Append(o.queries);
  mutations.Append(o.mutations);
  answered += o.answered;
  wall_s = std::max(wall_s, o.wall_s);
  attempted += o.attempted;
  failed += o.failed;
}

void FillEndToEnd(const LoopStats& loop, double setup_s, RunReport* report) {
  auto& m = report->end_to_end;
  auto& info = report->info;
  m["query_cpu_ms"] = loop.answered > 0 ? loop.cpu_s * 1000.0 / loop.answered : 0.0;
  m["setup_s"] = setup_s;
  m["peak_rss_mb"] = PeakRssMb();
  info["query_p50_ms"] = loop.queries.Percentile(50);
  info["query_p90_ms"] = loop.queries.Percentile(90);
  info["query_p99_ms"] = loop.queries.Percentile(99);
  info["query_samples"] = static_cast<double>(loop.queries.size());
  info["throughput_qps"] = loop.wall_s > 0 ? loop.answered / loop.wall_s : 0.0;
  if (loop.mutations.size() > 0) {
    info["mutation_p50_ms"] = loop.mutations.Percentile(50);
    info["mutation_p90_ms"] = loop.mutations.Percentile(90);
    info["mutation_samples"] = static_cast<double>(loop.mutations.size());
  }
  report->attempted += loop.attempted;
  report->failed += loop.failed;
}

void FillProcMetrics(const Usage& before, const Usage& after, double wall_s,
                     RunReport* report) {
  auto& m = report->per_layer;
  const double cpu = after.CpuSince(before);
  m["proc.minor_faults"] = static_cast<double>(after.minor_faults - before.minor_faults);
  m["proc.cpu_util"] = wall_s > 0 ? cpu / wall_s : 0.0;
  m["proc.sys_s"] = after.sys_s - before.sys_s;
}

void FillTraceOverhead(const LoopStats& untraced, const LoopStats& traced,
                       RunReport* report) {
  const double base = untraced.queries.Percentile(50);
  report->per_layer["trace.overhead_frac"] =
      base > 0 ? traced.queries.Percentile(50) / base - 1.0 : 0.0;
}

bool SameTuples(const std::vector<tetris::Tuple>& got,
                const std::vector<tetris::Tuple>& want, const std::string& what,
                RunReport* report) {
  if (got == want) return true;
  report->Mismatch(what + ": " + std::to_string(got.size()) +
                   " tuples, expected " + std::to_string(want.size()));
  return false;
}

}  // namespace perfbench
