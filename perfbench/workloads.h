// The benchmark's three closed-loop workloads. Each builds its inputs
// from RunConfig::seed, sets up (and primes) several times, runs the
// timed loop for RunConfig::seconds, checks every answer, and fills the
// end-to-end metrics (untraced run) or the per-layer ones (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// A run sets its workload up at least kSetupReps times and for at least
/// kSetupSeconds; setup_s is the median.
inline constexpr int kSetupReps = 9;
inline constexpr double kSetupSeconds = 4.0;

RunReport RunTriangleSharded(const RunConfig& cfg);
RunReport RunBatchMixed(const RunConfig& cfg);
RunReport RunServeRw(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
