#include "engine/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "engine/index_cache.h"
#include "index/index_view.h"
#include "index/sorted_index.h"

namespace tetris {

namespace {

// Worker identity, for reentrant Run: a Run issued from a pool task must
// help its own pool instead of blocking a worker slot.
thread_local const WorkStealingPool* tls_pool = nullptr;
thread_local int tls_worker = 0;

}  // namespace

WorkStealingPool::WorkStealingPool(int threads) {
  const int n = std::max(1, std::min(threads, 256));
  queues_.resize(static_cast<size_t>(n));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int WorkStealingPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

WorkStealingPool& WorkStealingPool::Global() {
  static WorkStealingPool pool(HardwareThreads());
  return pool;
}

WorkStealingPool::Task WorkStealingPool::NextTask(int self) {
  if (!queues_[self].empty()) {
    Task task = std::move(queues_[self].back());
    queues_[self].pop_back();
    --unassigned_;
    return task;
  }
  const int n = static_cast<int>(queues_.size());
  for (int off = 1; off < n; ++off) {
    auto& victim = queues_[(self + off) % n];
    if (!victim.empty()) {
      Task task = std::move(victim.front());
      victim.pop_front();
      --unassigned_;
      return task;
    }
  }
  return Task{};
}

void WorkStealingPool::WorkerLoop(int self) {
  tls_pool = this;
  tls_worker = self;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (Task task = NextTask(self); task.fn) {
      lock.unlock();
      task.fn();
      lock.lock();
      if (--task.group->pending == 0) cv_.notify_all();
      continue;
    }
    if (stop_) return;
    cv_.wait(lock, [this] { return stop_ || unassigned_ > 0; });
  }
}

void WorkStealingPool::Run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  Group group;
  const bool nested = tls_pool == this;
  {
    std::lock_guard<std::mutex> lock(mu_);
    group.pending = tasks.size();
    // A nested Run seeds its own worker's deque first (popped from the
    // back before anyone steals); external Runs spread round-robin.
    const size_t base = nested ? static_cast<size_t>(tls_worker) : 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
      queues_[(base + i) % queues_.size()].push_back(
          {std::move(tasks[i]), &group});
    }
    unassigned_ += group.pending;
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  if (nested) {
    // Help: execute queued tasks (any group's — they all finish) until
    // this group drains. Waits only while every remaining task of the
    // group is already running on another worker.
    while (group.pending > 0) {
      if (Task task = NextTask(tls_worker); task.fn) {
        lock.unlock();
        task.fn();
        lock.lock();
        if (--task.group->pending == 0) cv_.notify_all();
      } else {
        cv_.wait(lock, [this, &group] {
          return group.pending == 0 || unassigned_ > 0;
        });
      }
    }
  } else {
    cv_.wait(lock, [&group] { return group.pending == 0; });
  }
}

void ParallelFor(WorkStealingPool* pool, int max_parallel, int n,
                 const std::function<void(int)>& fn) {
  if (n <= 0) return;
  WorkStealingPool& p = pool != nullptr ? *pool : WorkStealingPool::Global();
  int w = max_parallel <= 0 ? p.threads()
                            : std::min(max_parallel, p.threads());
  w = std::min(w, n);
  if (w <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Ticket loop: w pool tasks drain one shared counter, so the group
  // occupies at most w workers of the shared budget while stealing keeps
  // them balanced.
  std::atomic<int> next{0};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(w));
  for (int t = 0; t < w; ++t) {
    tasks.push_back([&next, n, &fn] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  p.Run(std::move(tasks));
}

void ParallelFor(int threads, int n, const std::function<void(int)>& fn) {
  ParallelFor(nullptr, threads, n, fn);
}

void AppendNote(std::string* note, const std::string& s) {
  if (s.empty()) return;
  if (!note->empty()) *note += "; ";
  *note += s;
}

namespace {

constexpr const char kDeadlineError[] =
    "deadline exceeded: task abandoned before it started";

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Plan sharing within one pipeline run: OutputSpaceSignature with atoms
// stamped by Relation address. Address identity is exactly right within
// one call (the caller pins every relation) and deliberately NOT durable
// across calls — the server's ResultCache stamps by name@epoch instead.
std::string PlanSignature(const JoinQuery& query, int depth) {
  return OutputSpaceSignature(query, depth, [](const Relation& rel) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%p", static_cast<const void*>(&rel));
    return std::string(buf);
  });
}

// The index layout an atom wants under an order hint: the atom's
// columns sorted by SAO position (join_runner's MakeSaoConsistentIndexes
// derivation), normalized to the empty layout when that comes out as the
// relation's own column order — so hinted and unhinted queries share the
// default-layout entry.
IndexLayout LayoutFor(const Atom& atom, const std::vector<int>& sao_pos,
                      int depth) {
  IndexLayout layout;
  layout.depth = depth;
  if (sao_pos.empty()) return layout;
  std::vector<int> cols(atom.var_ids.size());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = static_cast<int>(c);
  std::sort(cols.begin(), cols.end(), [&](int x, int y) {
    return sao_pos[atom.var_ids[x]] < sao_pos[atom.var_ids[y]];
  });
  bool identity = true;
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c] != static_cast<int>(c)) identity = false;
  }
  if (!identity) layout.columns = std::move(cols);
  return layout;
}

// Shared zero-copy state of one query's Tetris-family shards: base
// indexes over the *original* relations (caller-built or from the index
// cache), restricted per shard through IndexViews. Shards read the bases
// concurrently under the Index const-probe contract.
struct TetrisShardContext {
  const JoinQuery* query = nullptr;
  JoinAlgorithm algo = JoinAlgorithm::kTetrisPreloaded;
  int depth = 0;
  std::vector<int> order;
  std::vector<const Index*> base;  // one per atom
  size_t base_index_bytes = 0;
};

// One shard task's outcome, as the merge receives it. A Tetris view
// shard leaves its output rows in `rows`, flat and in the engine's
// emission order, with `result.tuples` empty; the baselines fill
// `result.tuples` and leave `rows` empty.
struct ShardOutcome {
  EngineResult result;
  Relation rows{"output", {}};
};

// One shard of a Tetris-family run: per-atom IndexViews confine every
// probe and gap scan to the shard's box — no tuple is copied, no index
// rebuilt — and are dropped when the shard finishes.
ShardOutcome RunTetrisViewShard(const TetrisShardContext& ctx,
                                const DyadicBox& shard_box,
                                EngineKind kind) {
  ShardOutcome outcome;
  EngineResult& result = outcome.result;
  result.stats.engine = kind;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Atom>& atoms = ctx.query->atoms();
  std::vector<IndexView> views;
  views.reserve(atoms.size());
  for (size_t a = 0; a < atoms.size(); ++a) {
    const Atom& atom = atoms[a];
    DyadicBox abox =
        DyadicBox::Universal(static_cast<int>(atom.var_ids.size()));
    for (size_t c = 0; c < atom.var_ids.size(); ++c) {
      abox[static_cast<int>(c)] = shard_box[atom.var_ids[c]];
    }
    views.emplace_back(ctx.base[a], abox);
  }
  std::vector<const Index*> ptrs;
  ptrs.reserve(views.size());
  for (const IndexView& v : views) ptrs.push_back(&v);
  JoinRunResult run =
      RunTetrisJoin(*ctx.query, ptrs, ctx.depth, ctx.algo, ctx.order);
  // Left flat and in the engine's emission order: MergeShardRuns sorts
  // the concatenation of all shards once.
  outcome.rows = std::move(run.output);
  result.stats.tetris = run.stats;
  result.stats.input_gap_boxes = run.input_gap_boxes;
  result.stats.oracle_probes = run.oracle_probes;
  result.stats.memory.kb_bytes = static_cast<size_t>(run.stats.kb_peak_bytes);
  result.stats.memory.index_bytes = run.index_bytes;  // views: a few words
  result.stats.output_tuples = outcome.rows.size();
  result.stats.memory.output_bytes =
      EstimateAtomBytes(outcome.rows.size(), ctx.query->num_attrs());
  result.ok = true;
  result.stats.wall_ms = MsSince(start);
  return outcome;
}

// The baselines' lazy path: the restricted copy exists only inside this
// call — materialized when the worker picks the shard up, dropped when
// it finishes — so at most `threads` shard copies are resident at once
// instead of all 2^k.
EngineResult RunMaterializedShard(const JoinQuery& query,
                                  const ShardPlan& plan, int shard_id,
                                  EngineKind kind,
                                  const EngineOptions& shard_opts) {
  MaterializedShard ms = MaterializeShard(query, plan, shard_id);
  EngineResult r = RunJoin(ms.query, kind, shard_opts);
  // The materialized copy is this shard's resident input structure for
  // the whole run — count it, or the budget check would certify shards
  // whose input copy alone dwarfs the budget. (Unsharded baseline runs
  // scan the caller's relations and rightly report 0 here.)
  r.stats.memory.index_bytes = std::max(
      r.stats.memory.index_bytes, plan.shards[shard_id].payload_bytes);
  return r;
}

// Merges one shard's counters into the run total. Work counters add up;
// the memory fields keep the per-shard *peak* — shards build and release
// their resident structures independently, and the peak is what the
// budget constrains.
void AccumulateShardStats(RunStats* into, const RunStats& s) {
  into->tetris.Accumulate(s.tetris);
  into->input_gap_boxes += s.input_gap_boxes;
  into->oracle_probes += s.oracle_probes;
  into->probes += s.probes;
  into->seeks += s.seeks;
  into->baseline.max_intermediate =
      std::max(into->baseline.max_intermediate, s.baseline.max_intermediate);
  into->baseline.total_intermediate += s.baseline.total_intermediate;
  into->baseline.max_intermediate_bytes =
      std::max(into->baseline.max_intermediate_bytes,
               s.baseline.max_intermediate_bytes);
  into->memory.kb_bytes = std::max(into->memory.kb_bytes, s.memory.kb_bytes);
  into->memory.index_bytes =
      std::max(into->memory.index_bytes, s.memory.index_bytes);
  into->memory.intermediate_bytes =
      std::max(into->memory.intermediate_bytes, s.memory.intermediate_bytes);
  into->max_shard_peak_bytes =
      std::max(into->max_shard_peak_bytes, s.memory.PeakBytes());
}

// Deterministic by-shard-id merge of one query's selected shards into one
// facade EngineResult: concatenates tuples (then canonicalizes once —
// flat Tetris rows are sorted as one buffer and materialized as facade
// tuples in their final order),
// accumulates RunStats, fills shard_runs / the estimator fields from
// `plan`, reports shards whose actual peak overran `memory_budget_bytes`
// (0 = no budget) in shard_note, and surfaces `shared_index_bytes` (the
// always-resident base indexes of a zero-copy run; 0 for materializing
// engines) in the merged memory counters. `shard_results[i]` must hold
// shard i's result for every selected non-empty plan shard; a failed
// shard fails the merge (`ok == false`).
EngineResult MergeShardRuns(const JoinQuery& query, EngineKind kind,
                            const ShardPlan& plan,
                            const std::vector<bool>& selected,
                            std::vector<ShardOutcome> shard_results,
                            size_t memory_budget_bytes,
                            size_t shared_index_bytes) {
  EngineResult result;
  result.stats.engine = kind;
  const size_t m = plan.shards.size();
  Relation rows("output", query.attrs());
  size_t flat_rows = 0;
  for (const ShardOutcome& o : shard_results) flat_rows += o.rows.size();
  rows.Reserve(flat_rows);
  result.stats.shards = m;
  result.stats.estimated_max_shard_peak_bytes = plan.max_estimated_peak_bytes;
  result.stats.plan_bytes = plan.PlanningBytes();
  size_t over_budget = 0;
  size_t worst_peak = 0;
  size_t worst_shard = 0;
  for (size_t i = 0; i < m; ++i) {
    if (!selected[i]) continue;
    ShardRunInfo info;
    info.shard_id = static_cast<int>(i);
    info.box = plan.shards[i].box.ToString();
    if (plan.shards[i].empty) {
      info.skipped_empty = true;
      result.shard_runs.push_back(std::move(info));
      continue;
    }
    EngineResult& r = shard_results[i].result;
    if (!r.ok) {
      result.error = "shard " + std::to_string(i) + ": " + r.error;
      result.shard_runs.clear();
      return result;
    }
    rows.Append(shard_results[i].rows);
    result.tuples.insert(result.tuples.end(),
                         std::make_move_iterator(r.tuples.begin()),
                         std::make_move_iterator(r.tuples.end()));
    AccumulateShardStats(&result.stats, r.stats);
    info.output_tuples = r.stats.output_tuples;
    info.stats = r.stats;
    if (memory_budget_bytes > 0 &&
        r.stats.memory.PeakBytes() > memory_budget_bytes) {
      ++over_budget;
      if (r.stats.memory.PeakBytes() > worst_peak) {
        worst_peak = r.stats.memory.PeakBytes();
        worst_shard = i;
      }
    }
    result.shard_runs.push_back(std::move(info));
  }
  // The shared base indexes of a zero-copy run stay resident for the
  // whole run (the per-shard views are a few words each): surface them
  // in the run-level counter so the unsharded/sharded numbers compare.
  result.stats.memory.index_bytes =
      std::max(result.stats.memory.index_bytes, shared_index_bytes);
  if (over_budget > 0) {
    result.shard_note =
        std::to_string(over_budget) + " of " + std::to_string(m) +
        " shards exceeded the " + std::to_string(memory_budget_bytes) +
        "B budget at run time (worst: shard " + std::to_string(worst_shard) +
        " peaked at " + std::to_string(worst_peak) + "B)";
  }

  // Shards are disjoint subcubes, so concatenation has no duplicates,
  // but sorting restores the canonical facade order (Tetris view shards
  // arrive unsorted, in the engine's SAO emission order).
  if (rows.size() > 0) {
    rows.Canonicalize();
    result.tuples = rows.ToTuples();
  } else {
    CanonicalizeTuples(&result.tuples);
  }
  result.ok = true;
  result.stats.output_tuples = result.tuples.size();
  result.stats.memory.intermediate_bytes =
      std::max(result.stats.memory.intermediate_bytes,
               result.stats.baseline.max_intermediate_bytes);
  result.stats.memory.output_bytes =
      EstimateAtomBytes(result.tuples.size(), query.num_attrs());
  return result;
}

}  // namespace

BatchOptions OneQueryBatch(const EngineOptions& options, int depth) {
  BatchOptions batch;
  batch.depth = depth;
  batch.shards = options.shards;
  batch.threads = options.threads;
  batch.memory_budget_bytes = options.memory_budget_bytes;
  batch.executor = options.executor;
  if (!options.order.empty()) batch.orders.assign(1, options.order);
  return batch;
}

BatchResult RunShardPipeline(const std::vector<ShardQuery>& queries,
                             EngineKind kind, const BatchOptions& options) {
  BatchResult batch;
  batch.ok = true;  // every failure below is per query
  const size_t n = queries.size();
  const int depth = options.depth;
  const size_t budget = options.memory_budget_bytes;
  batch.results.resize(n);
  batch.stats.queries = n;
  for (EngineResult& r : batch.results) r.stats.engine = kind;

  // Per-query support and order-hint checks, with RunJoin's wording: a
  // query the engine cannot run fails alone; the rest of the batch runs.
  std::vector<EngineOptions> shard_opts(n);
  std::vector<size_t> live;  // runnable queries, in input order
  for (size_t q = 0; q < n; ++q) {
    const JoinQuery& query = *queries[q].query;
    EngineResult& r = batch.results[q];
    if (!EngineSupports(kind, query)) {
      r.error = std::string(EngineKindName(kind)) +
                ": engine does not support this query";
      continue;
    }
    if (!options.orders.empty()) shard_opts[q].order = options.orders[q];
    r.error = OrderHintError(kind, shard_opts[q].order, query.num_attrs());
    if (!r.error.empty()) continue;
    shard_opts[q].depth = depth;
    live.push_back(q);
  }
  if (live.empty()) return batch;

  // Base indexes for the Tetris family (the baselines scan relations):
  // caller-built ones pass through; the rest come from the (relation,
  // layout) cache — one build per distinct layout the batch touches, and
  // zero on a warm long-lived cache (BatchOptions::index_cache).
  const std::optional<JoinAlgorithm> algo = TetrisAlgorithmOf(kind);
  IndexCache local_cache;
  IndexCache& cache =
      options.index_cache != nullptr ? *options.index_cache : local_cache;
  std::vector<std::shared_ptr<const SortedIndex>> pinned;  // keep alive
  std::unordered_set<const Index*> counted;
  std::vector<TetrisShardContext> contexts(n);
  if (algo.has_value()) {
    for (size_t q : live) {
      const JoinQuery& query = *queries[q].query;
      TetrisShardContext& ctx = contexts[q];
      ctx.query = &query;
      ctx.algo = *algo;
      ctx.depth = depth;
      ctx.order = shard_opts[q].order;
      ctx.base = queries[q].indexes;
      if (ctx.base.empty()) {
        std::vector<int> sao_pos;
        if (!ctx.order.empty()) {
          sao_pos.resize(query.num_attrs());
          for (size_t i = 0; i < ctx.order.size(); ++i) {
            sao_pos[ctx.order[i]] = static_cast<int>(i);
          }
        }
        for (const Atom& atom : query.atoms()) {
          bool built = false;
          std::shared_ptr<const SortedIndex> ix =
              cache.Get(atom.rel, LayoutFor(atom, sao_pos, depth), &built);
          if (built) ++batch.stats.indexes_built;
          else ++batch.stats.index_cache_hits;
          ctx.base.push_back(ix.get());
          pinned.push_back(std::move(ix));
        }
      }
      for (const Index* ix : ctx.base) {
        ctx.base_index_bytes += ix->MemoryBytes();
        if (counted.insert(ix).second) {
          batch.stats.index_bytes += ix->MemoryBytes();
        }
      }
    }
  }

  // Plan: one ShardPlan per distinct output-space signature — its row
  // buckets are the expensive part, shared by every query over the same
  // relations and binding. (Order hints don't enter the signature: they
  // steer traversal, not the output space.) Auto mode sizes each plan so
  // the whole batch has at least one task per worker; with many queries,
  // query-level parallelism already covers the machine and plans stay
  // single-shard. The budget estimate is the deterministic payload sum.
  WorkStealingPool& pool = options.executor != nullptr
                               ? *options.executor
                               : WorkStealingPool::Global();
  const int requested =
      options.threads == 0 ? pool.threads() : std::max(1, options.threads);
  ShardPlanOptions popt;
  popt.shards = options.shards;
  popt.threads_hint = static_cast<int>(
      (static_cast<size_t>(requested) + live.size() - 1) / live.size());
  popt.memory_budget_bytes = budget;
  popt.depth = depth;
  std::vector<ShardPlan> plans;
  std::map<std::string, size_t> plan_of_signature;
  std::vector<size_t> query_plan(n, 0);
  for (size_t q : live) {
    const JoinQuery& query = *queries[q].query;
    auto [it, fresh] =
        plan_of_signature.emplace(PlanSignature(query, depth), plans.size());
    if (fresh) {
      plans.push_back(PlanShards(query, popt));
      batch.stats.plan_bytes += plans.back().PlanningBytes();
    }
    query_plan[q] = it->second;
  }
  batch.stats.plans = plans.size();

  // Tasks: every selected non-empty (query, shard) pair becomes one
  // executor task — no per-query barrier anywhere, so a skewed shard of
  // one query overlaps with the shards of the others.
  struct TaskRef {
    size_t q = 0;
    int shard = 0;
  };
  std::vector<TaskRef> tasks;
  std::vector<std::vector<ShardOutcome>> shard_results(n);
  std::vector<std::vector<bool>> selected(n);
  for (size_t q : live) {
    const ShardPlan& plan = plans[query_plan[q]];
    shard_results[q].resize(plan.shards.size());
    selected[q].assign(plan.shards.size(), true);
    for (const Shard& shard : plan.shards) {
      if (queries[q].filter && !queries[q].filter(shard.box)) {
        selected[q][shard.id] = false;
      } else if (!shard.empty) {
        tasks.push_back({q, shard.id});
      }
    }
  }
  batch.stats.tasks = tasks.size();

  // Execute on the pool. The deadline is checked at task granularity: an
  // unstarted task is abandoned and fails its query; a running one
  // completes.
  const int workers = std::max(
      1, std::min({requested, pool.threads(), static_cast<int>(tasks.size())}));
  batch.stats.threads = static_cast<size_t>(workers);
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point{};
  const auto exec_start = std::chrono::steady_clock::now();
  ParallelFor(&pool, workers, static_cast<int>(tasks.size()), [&](int t) {
    const TaskRef& task = tasks[static_cast<size_t>(t)];
    const JoinQuery& query = *queries[task.q].query;
    const ShardPlan& plan = plans[query_plan[task.q]];
    ShardOutcome& slot = shard_results[task.q][task.shard];
    if (has_deadline &&
        std::chrono::steady_clock::now() >= options.deadline) {
      slot.result.stats.engine = kind;
      slot.result.error = kDeadlineError;
    } else if (algo.has_value()) {
      slot = RunTetrisViewShard(contexts[task.q], plan.shards[task.shard].box,
                                kind);
    } else if (plan.split_bits == 0) {
      // A single-shard plan covers the whole output space: scan the
      // original relations instead of materializing a copy equal to
      // them.
      slot.result = RunJoin(query, kind, shard_opts[task.q]);
    } else {
      slot.result = RunMaterializedShard(query, plan, task.shard, kind,
                                         shard_opts[task.q]);
    }
  });
  const double exec_ms = MsSince(exec_start);

  // Wall-time attribution. Shard tasks of different queries ran
  // concurrently, so summing a query's shard walls could let one query's
  // "time" exceed the whole batch wall. Instead the summed task time is
  // the batch's occupancy (stats.cpu_ms), and each query is attributed
  // the execution wall split by its share of that occupancy — attributed
  // times compare, and their sum never exceeds the batch wall.
  std::vector<double> task_ms(n, 0.0);
  std::vector<size_t> abandoned(n, 0);
  for (size_t q : live) {
    for (const ShardOutcome& o : shard_results[q]) {
      const EngineResult& r = o.result;
      if (!r.ok && r.error == kDeadlineError) ++abandoned[q];
      else task_ms[q] += r.stats.wall_ms;
    }
    batch.stats.cpu_ms += task_ms[q];
  }

  // Merge, deterministically per query in input order.
  size_t deadline_failures = 0;
  for (size_t q : live) {
    EngineResult& out = batch.results[q];
    if (abandoned[q] > 0) {
      out.error = "deadline exceeded: " + std::to_string(abandoned[q]) +
                  " of " + std::to_string(shard_results[q].size()) +
                  " shard tasks abandoned";
      ++deadline_failures;
      continue;
    }
    const ShardPlan& plan = plans[query_plan[q]];
    const TetrisShardContext& ctx = contexts[q];
    const double attributed_ms =
        batch.stats.cpu_ms > 0.0
            ? exec_ms * (task_ms[q] / batch.stats.cpu_ms)
            : exec_ms / static_cast<double>(live.size());
    out = MergeShardRuns(*queries[q].query, kind, plan, selected[q],
                         std::move(shard_results[q]), budget,
                         ctx.base_index_bytes);
    out.stats.threads = batch.stats.threads;
    out.stats.wall_ms = attributed_ms;
    batch.stats.sum_query_ms += attributed_ms;
    // The shared base indexes stay resident for the whole run no matter
    // how fine the split — a budget below them is unsatisfiable by
    // sharding, and pretending per-shard peaks settle it would be lying.
    std::string note;
    if (budget > 0 && ctx.base_index_bytes > budget) {
      note = "budget " + std::to_string(budget) +
             "B is below the shared base indexes (" +
             std::to_string(ctx.base_index_bytes) +
             "B), which stay resident for the whole run regardless of the "
             "split — the budget can only constrain per-shard peaks on top "
             "of them";
    }
    AppendNote(&note, plan.note);
    AppendNote(&note, out.shard_note);
    if (out.ok && budget > 0) {
      // Post-run estimator audit: the prediction is printed next to the
      // actual value it predicts.
      AppendNote(&note, "estimator(payload): predicted max shard peak " +
                            std::to_string(plan.max_estimated_peak_bytes) +
                            "B, actual " +
                            std::to_string(out.stats.max_shard_peak_bytes) +
                            "B");
    }
    out.shard_note = std::move(note);
  }

  std::string serve_note =
      std::to_string(batch.stats.plans) + " plan" +
      (batch.stats.plans == 1 ? "" : "s") + " and " +
      std::to_string(batch.stats.indexes_built) +
      " base index builds served " + std::to_string(live.size()) +
      (live.size() == 1 ? " query" : " queries");
  if (batch.stats.index_cache_hits > 0) {
    serve_note += " (" + std::to_string(batch.stats.index_cache_hits) +
                  " index cache hits)";
  }
  AppendNote(&batch.note, serve_note);
  if (deadline_failures > 0) {
    AppendNote(&batch.note, std::to_string(deadline_failures) +
                                (deadline_failures == 1 ? " query" : " queries") +
                                " failed on the deadline");
  }
  return batch;
}

}  // namespace tetris
