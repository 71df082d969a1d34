// perfbench: the join-service benchmark program.
//
//   perfbench --workload triangle_sharded|batch_mixed|serve_rw --seed N
//             --seconds S --trace 0|1 [--trace-out DIR] [--commit SHA]
//
// Prints a human-readable report, one stamp line
// ({"stamp": {...}}: nproc, build type, compiler, commit, seed), and as
// its last line the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. A traced run also writes its spans, one JSON object per
// line, under --trace-out. Exit status: 0 when every answer checked out,
// 1 on a wrong answer, 2 on bad flags.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every untraced run.
const std::vector<MetricDef> kEndToEnd = {
    {"query_cpu_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Printed in the report but not in the result (see RunReport::info),
// where the workload measures them.
const std::vector<MetricDef> kReportOnly = {
    {"query_p50_ms", "ms"},
    {"query_p90_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"query_samples", "count"},
    {"throughput_qps", "q/s"},
    {"mutation_p50_ms", "ms"},
    {"mutation_p90_ms", "ms"},
    {"mutation_samples", "count"},
    {"result_working_set_bytes", "B"},
    {"result_cache_bytes", "B"},
    {"hit_share", "frac"},
    {"patch_share", "frac"},
    {"recompute_share", "frac"},
};

// Every per-layer metric, printed by every traced run. A layer the
// workload does not exercise reads 0.
const std::vector<MetricDef> kPerLayer = {
    {"engine.shard.plan_ms", "ms"},
    {"engine.shard.shards", "count"},
    {"engine.shard.empty_shards", "count"},
    {"engine.shard.parallelism", "ratio"},
    {"engine.shard.straggler_ratio", "ratio"},
    {"engine.shard.critical_share", "frac"},
    {"engine.tetris.unsharded_ms", "ms"},
    {"engine.tetris.resolutions", "count"},
    {"engine.tetris.kb_inserts", "count"},
    {"engine.tetris.boxes_loaded", "count"},
    {"engine.tetris.kb_peak_bytes", "B"},
    {"kb.insert_ns", "ns"},
    {"kb.find_ns", "ns"},
    {"index.build_ms", "ms"},
    {"index.gap_boxes", "count"},
    {"relation.canonicalize_ms", "ms"},
    {"baseline.generic_join_ms", "ms"},
    {"engine.batch.indexes_built", "count"},
    {"engine.batch.index_cache_hits", "count"},
    {"engine.batch.plans", "count"},
    {"engine.batch.tasks", "count"},
    {"engine.batch.parallelism", "ratio"},
    {"engine.batch.sequential_ms", "ms"},
    {"engine.batch.recompute_p50_ms", "ms"},
    {"engine.batch.recompute_frac", "frac"},
    {"server.result_cache.hit_rate", "frac"},
    {"server.result_cache.evictions", "count"},
    {"server.result_cache.invalidations", "count"},
    {"server.result_cache.survivals", "count"},
    {"server.result_cache.hit_p50_ms", "ms"},
    {"server.registry.snap_us", "us"},
    {"server.mutation_p50_ms", "ms"},
    {"server.mutation_p90_ms", "ms"},
    {"engine.incremental.patched_p50_ms", "ms"},
    {"engine.incremental.patch_frac", "frac"},
    {"engine.incremental.rerun_frac", "frac"},
    {"engine.index_cache.builds", "count"},
    {"engine.index_cache.promotes", "count"},
    {"engine.index_cache.compactions", "count"},
    {"engine.index_cache.bytes", "B"},
    {"server.admission.rejected", "count"},
    {"server.admission.queued", "count"},
    {"proc.minor_faults", "count"},
    {"proc.cpu_util", "ratio"},
    {"proc.sys_s", "s"},
    {"trace.overhead_frac", "frac"},
};

std::string Num(double v) {
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

int BadFlags(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "triangle_sharded|batch_mixed|serve_rw --seed N --seconds S "
               "--trace 0|1 [--trace-out DIR] [--commit SHA]\n",
               why);
  return 2;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":" << Quote(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string trace_out, commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return BadFlags(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 120;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      cfg.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return BadFlags(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return BadFlags("--seed, --seconds (0 < S <= 120) and --trace are required");
  }

  RunReport report;
  if (cfg.workload == "triangle_sharded") {
    report = RunTriangleSharded(cfg);
  } else if (cfg.workload == "batch_mixed") {
    report = RunBatchMixed(cfg);
  } else if (cfg.workload == "serve_rw") {
    report = RunServeRw(cfg);
  } else {
    return BadFlags(("unknown workload '" + cfg.workload + "'").c_str());
  }

  const std::vector<MetricDef>& defs = cfg.trace ? kPerLayer : kEndToEnd;
  const auto& values = cfg.trace ? report.per_layer : report.end_to_end;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("attempted=%llu failed=%llu error_rate=%s correct=%s%s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              Num(report.attempted ? double(report.failed) / report.attempted : 0)
                  .c_str(),
              report.correct ? "true" : "false",
              report.correct ? "" : ("  (" + report.failure + ")").c_str());
  for (const MetricDef& d : kReportOnly) {
    auto it = report.info.find(d.name);
    if (it == report.info.end()) continue;
    std::printf("  %-36s %14s %s (not in the result)\n", d.name,
                Num(it->second).c_str(), d.unit);
  }
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    std::printf("  %-36s %14s %s\n", d.name,
                it == values.end() ? "-" : Num(it->second).c_str(), d.unit);
  }
  if (cfg.trace) {
    std::printf("  self time by span (ms, spans):\n");
    for (const auto& [name, t] : SelfTimes(report.spans)) {
      std::printf("    %-36s %12.3f %8zu\n", name.c_str(), t.ms, t.spans);
    }
    if (!trace_out.empty()) {
      const std::string path = trace_out + "/spans-" + cfg.workload + "-seed" +
                               std::to_string(cfg.seed) + ".jsonl";
      WriteSpans(path, report.spans);
      std::printf("  spans written to %s\n", path.c_str());
    }
  }

  std::printf(
      "{\"stamp\": {\"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
      "\"commit\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %s}}\n",
      std::thread::hardware_concurrency(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(PERFBENCH_COMPILER).c_str(), Quote(commit).c_str(),
      Quote(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
      Num(cfg.seconds).c_str());

  std::string metrics;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end()) {
      if (!cfg.trace) {
        std::fprintf(stderr, "perfbench: %s not measured\n", d.name);
        return 1;
      }
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(d.name) + ": {\"value\": " +
               Num(it == values.end() ? 0.0 : it->second) +
               ", \"unit\": " + Quote(d.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
