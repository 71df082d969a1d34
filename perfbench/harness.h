// Shared machinery of the join-service benchmark: clocks, latency
// samples, process counters, in-memory spans and the run report every
// workload fills.
//
// End-to-end numbers come from an untraced run; a traced run records a
// span around every call the benchmark makes into a layer and derives the
// per-layer metrics. Spans live in memory (one log per calling thread, no
// locking) and are written out as JSON lines when the run ends.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point a) {
  return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

/// Latency samples in milliseconds. A failed operation is +inf, so it
/// misses every latency limit and pushes the percentiles up.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void AddFailed();
  void Append(const Samples& o) { ms_.insert(ms_.end(), o.ms_.begin(), o.ms_.end()); }
  size_t size() const { return ms_.size(); }
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> ms_;
};

/// Median of `v` (upper median for even sizes); 0 when empty.
double Median(std::vector<double> v);

/// getrusage(RUSAGE_SELF) counters.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;
  static Usage Now();
  /// User + system CPU seconds since `before`.
  double CpuSince(const Usage& before) const {
    return (user_s - before.user_s) + (sys_s - before.sys_s);
  }
};

/// ru_maxrss of this process, in MiB.
double PeakRssMb();

/// One timed call into a layer. `parent` is 0 for a request's root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The spans of one calling thread. A disabled log records nothing and
/// costs one branch per call.
class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t thread) : enabled_(enabled), thread_(thread) {}

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent, uint64_t request)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Per span name: summed self time (duration minus the part covered by
/// child spans) and span count.
struct SelfTime {
  double ms = 0.0;
  size_t spans = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// What one workload run hands back to main().
struct RunReport {
  bool correct = true;
  std::string failure;  ///< first answer mismatch
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Printed in the report but not part of the result object: the
  /// wall-clock latencies and throughput (they move with CPU steal from
  /// other tenants of a shared host by more than any bound allows), the
  /// sample counts, serve_rw's mutation latencies (the only workload that
  /// writes in its loop) and its result working set, cache size and
  /// hit/patch/recompute shares.
  std::map<std::string, double> info;
  std::vector<Span> spans;

  void Mismatch(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// The closed-loop measurements of one timed phase.
struct LoopStats {
  Samples queries;        ///< per-call query latency (failed = +inf)
  Samples mutations;      ///< per-call mutation latency (failed = +inf)
  uint64_t answered = 0;  ///< queries answered (a batch counts each query)
  double wall_s = 0.0;    ///< timed wall seconds the callers waited
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// CPU seconds the whole process spent over the loop (its workers
  /// included).
  double cpu_s = 0.0;

  void Merge(const LoopStats& o);
};

/// Runs `setup` at least `min_reps` times and until `min_seconds` have
/// passed (at most 1000 times), and returns the median wall seconds.
/// Spreading the repetitions over several seconds keeps a short burst of
/// host contention from setting the median.
template <typename F>
double MedianSetupSeconds(int min_reps, double min_seconds, F&& setup) {
  std::vector<double> s;
  double total = 0.0;
  while ((static_cast<int>(s.size()) < min_reps || total < min_seconds) &&
         s.size() < 1000) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(MsSince(t0) / 1000.0);
    total += s.back();
  }
  return Median(s);
}

/// Times `fn` at least `min_reps` times and until `min_total_ms` have
/// passed (at most 1000 calls); returns the median call in milliseconds.
template <typename F>
double MedianCallMs(int min_reps, double min_total_ms, F&& fn) {
  std::vector<double> ms;
  double total = 0.0;
  while ((static_cast<int>(ms.size()) < min_reps || total < min_total_ms) &&
         ms.size() < 1000) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(MsSince(t0));
    total += ms.back();
  }
  return Median(ms);
}

/// Fills every end-to-end metric from the untraced loop, and accounts
/// its attempts and failures.
void FillEndToEnd(const LoopStats& loop, double setup_s, RunReport* report);

/// Fills the proc.* per-layer metrics from a usage delta over `wall_s`.
void FillProcMetrics(const Usage& before, const Usage& after, double wall_s,
                     RunReport* report);

/// Reports the traced loop's median latency against the untraced one.
void FillTraceOverhead(const LoopStats& untraced, const LoopStats& traced,
                       RunReport* report);

/// The closed loop of one caller: issues `call()` back to back for
/// `seconds`, each under a "request" root span with the call in a child
/// span named `span`. One call issues `queries` queries, and
/// `failures(result)` counts those that failed; a call with any failure
/// is +inf in the latency samples. The result of every other call goes
/// to `check(result, ms)` under a "bench.check" span.
template <typename Call, typename Failures, typename Check>
LoopStats ClosedLoop(double seconds, uint64_t queries, const char* span,
                     SpanLog* log, uint64_t* request, Call&& call,
                     Failures&& failures, Check&& check) {
  LoopStats loop;
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end) {
    const uint64_t req = ++*request;
    ScopedSpan root(log, "request", 0, req);
    decltype(call()) r;
    double ms = 0.0;
    {
      ScopedSpan s(log, span, root.id(), req);
      const auto t0 = Clock::now();
      r = call();
      ms = MsSince(t0);
    }
    loop.attempted += queries;
    loop.wall_s += ms / 1000.0;
    const uint64_t failed = failures(r);
    if (failed > 0) {
      loop.failed += failed;
      loop.queries.AddFailed();
      continue;
    }
    loop.queries.Add(ms);
    loop.answered += queries;
    ScopedSpan s(log, "bench.check", root.id(), req);
    check(r, ms);
  }
  return loop;
}

/// The timed phase of a run. `loop(seconds, traced)` runs the workload
/// for `seconds`, recording spans when `traced`. Untraced, the whole
/// phase runs untraced and fills the end-to-end metrics. Traced, the
/// first half runs untraced and the second traced, which fills the
/// proc.* metrics and trace.overhead_frac.
template <typename Loop>
void TimedPhase(const RunConfig& cfg, double setup_s, RunReport* report,
                Loop&& loop) {
  if (!cfg.trace) {
    const Usage u0 = Usage::Now();
    LoopStats plain = loop(cfg.seconds, false);
    plain.cpu_s = Usage::Now().CpuSince(u0);
    FillEndToEnd(plain, setup_s, report);
    return;
  }
  const Usage u0 = Usage::Now();
  const auto t0 = Clock::now();
  const LoopStats plain = loop(cfg.seconds / 2, false);
  const LoopStats traced = loop(cfg.seconds / 2, true);
  FillProcMetrics(u0, Usage::Now(), MsSince(t0) / 1000.0, report);
  FillTraceOverhead(plain, traced, report);
  report->attempted += plain.attempted + traced.attempted;
  report->failed += plain.failed + traced.failed;
}

/// Canonical tuple sets compare equal; `what` names the answer in the
/// mismatch message.
bool SameTuples(const std::vector<tetris::Tuple>& got,
                const std::vector<tetris::Tuple>& want, const std::string& what,
                RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
