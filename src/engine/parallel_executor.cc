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

#include "baseline/generic_join.h"
#include "baseline/leapfrog.h"
#include "baseline/pairwise_join.h"
#include "baseline/yannakakis.h"
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
  // Work that cannot spread runs inline without touching (or creating)
  // the global pool.
  WorkStealingPool* p = nullptr;
  if (n > 1 && max_parallel != 1) {
    p = pool != nullptr ? pool : &WorkStealingPool::Global();
  }
  const int w =
      p == nullptr ? 1
                   : std::min({max_parallel <= 0 ? p->threads() : max_parallel,
                               p->threads(), n});
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
  p->Run(std::move(tasks));
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

// The index layout an atom wants under an order hint: SaoColumnOrder
// (the layout MakeSaoConsistentIndexes builds), normalized to the empty
// layout when that comes out as the relation's own column order — so
// hinted and unhinted queries share the default-layout entry.
IndexLayout LayoutFor(const Atom& atom, const std::vector<int>& sao_pos,
                      int depth) {
  IndexLayout layout;
  layout.depth = depth;
  if (sao_pos.empty()) return layout;
  std::vector<int> cols = SaoColumnOrder(atom, sao_pos);
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c] != static_cast<int>(c)) {
      layout.columns = std::move(cols);
      break;
    }
  }
  return layout;
}

// One shard task's outcome, as the merge receives it. A Tetris-family
// shard leaves its output rows in `rows`, flat and in the engine's
// emission order, with `result.tuples` empty; the baselines fill
// `result.tuples` and leave `rows` empty.
struct ShardOutcome {
  EngineResult result;
  Relation rows{"output", {}};
};

// One runnable query's state through the pipeline. The Tetris family
// reads base indexes over the *original* relations (caller-built or from
// the index cache), restricted per shard through IndexViews; shards read
// the bases concurrently under the Index const-probe contract.
struct QueryRun {
  size_t q = 0;  // position in the batch
  const JoinQuery* query = nullptr;
  std::vector<int> order;  // the hint, or a GAO derived from indexes
  std::vector<const Index*> base;  // Tetris family: one per atom
  size_t base_index_bytes = 0;
  size_t plan = 0;                     // into the run's plans
  std::vector<bool> selected;          // by shard id
  std::vector<ShardOutcome> outcomes;  // by shard id
  double task_ms = 0.0;                // summed task time
  size_t abandoned = 0;                // tasks abandoned at the deadline
};

// One shard of a Tetris-family run: per-atom IndexViews confine every
// probe and gap scan to the shard's box — no tuple is copied, no index
// rebuilt — and are dropped when the shard finishes. (A single-shard
// plan's views span the whole space. Probing the bases directly there
// measured no faster, and it shifted glibc's dynamic mmap threshold so
// that batch_mixed's peak RSS rose from 36 to 43 MB on most runs.)
ShardOutcome RunTetrisShard(const QueryRun& run, JoinAlgorithm algo,
                            int depth, const ShardPlan& plan, int shard_id,
                            EngineKind kind) {
  const DyadicBox& shard_box = plan.shards[shard_id].box;
  ShardOutcome outcome;
  EngineResult& result = outcome.result;
  result.stats.engine = kind;
  const std::vector<Atom>& atoms = run.query->atoms();
  std::vector<IndexView> views;
  views.reserve(atoms.size());
  for (size_t a = 0; a < atoms.size(); ++a) {
    const Atom& atom = atoms[a];
    DyadicBox abox =
        DyadicBox::Universal(static_cast<int>(atom.var_ids.size()));
    for (size_t c = 0; c < atom.var_ids.size(); ++c) {
      abox[static_cast<int>(c)] = shard_box[atom.var_ids[c]];
    }
    views.emplace_back(run.base[a], abox);
  }
  std::vector<const Index*> ptrs;
  ptrs.reserve(views.size());
  for (const IndexView& v : views) ptrs.push_back(&v);
  JoinRunResult joined =
      RunTetrisJoin(*run.query, ptrs, depth, algo, run.order);
  // Left flat and in the engine's emission order: MergeShardRuns sorts
  // the concatenation of all shards once.
  outcome.rows = std::move(joined.output);
  result.stats.tetris = joined.stats;
  result.stats.input_gap_boxes = joined.input_gap_boxes;
  result.stats.oracle_probes = joined.oracle_probes;
  result.stats.memory.kb_bytes =
      static_cast<size_t>(joined.stats.kb_peak_bytes);
  // The shard's own probe structures: its views, a few words each. A
  // single-shard plan's views restrict nothing, so a plain run reports
  // just the shared bases, which the merge counts once.
  result.stats.memory.index_bytes =
      plan.split_bits > 0 ? joined.index_bytes : 0;
  result.stats.output_tuples = outcome.rows.size();
  result.stats.memory.output_bytes =
      EstimateAtomBytes(outcome.rows.size(), run.query->num_attrs());
  result.ok = true;
  return outcome;
}

// Derives the GAO Leapfrog / Generic Join should run under from the
// column orders of per-atom SortedIndexes: each index's trie order
// constrains its atom's attributes to appear in that relative order, and
// the GAO is any topological order of the union of those constraints
// (smallest attribute id first on ties, so the result is deterministic).
bool DeriveGaoFromIndexes(const JoinQuery& query,
                          const std::vector<const Index*>& indexes,
                          std::vector<int>* gao, std::string* error) {
  const int n = query.num_attrs();
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indeg(n, 0);
  for (size_t i = 0; i < indexes.size(); ++i) {
    const auto* si = dynamic_cast<const SortedIndex*>(indexes[i]);
    if (si == nullptr) {
      *error = "indexes: leapfrog / generic-join derive their trie order "
               "from SortedIndexes only";
      return false;
    }
    const Atom& atom = query.atoms()[i];
    if (si->arity() != static_cast<int>(atom.var_ids.size())) {
      *error = "indexes: index arity disagrees with its atom";
      return false;
    }
    const std::vector<int>& order = si->order();
    for (size_t l = 0; l + 1 < order.size(); ++l) {
      const int u = atom.var_ids[order[l]];
      const int v = atom.var_ids[order[l + 1]];
      if (u == v) continue;  // atom repeats an attribute
      succ[u].push_back(v);
      ++indeg[v];
    }
  }
  gao->clear();
  std::vector<bool> placed(n, false);
  for (int step = 0; step < n; ++step) {
    int pick = -1;
    for (int v = 0; v < n; ++v) {
      if (!placed[v] && indeg[v] == 0) {
        pick = v;
        break;
      }
    }
    if (pick < 0) {
      *error = "indexes: the SortedIndex column orders conflict "
               "(no attribute order is consistent with every trie)";
      return false;
    }
    placed[pick] = true;
    gao->push_back(pick);
    for (int w : succ[pick]) --indeg[w];
  }
  return true;
}

// The baselines' one entry: evaluates `query` with `kind` under the GAO
// hint `gao` (Leapfrog / Generic Join only). The tuples are left for the
// merge to canonicalize.
EngineResult RunBaseline(const JoinQuery& query, EngineKind kind,
                         const std::vector<int>& gao) {
  EngineResult result;
  result.stats.engine = kind;
  switch (kind) {
    case EngineKind::kLeapfrog:
      result.tuples = LeapfrogTriejoin(query, gao, &result.stats.seeks);
      break;
    case EngineKind::kGenericJoin:
      result.tuples = GenericJoin(query, gao, &result.stats.probes);
      break;
    case EngineKind::kYannakakis: {
      auto out = YannakakisJoin(query, &result.stats.baseline);
      if (!out.has_value()) {
        result.error = EngineSupportError(kind, query);
        return result;
      }
      result.tuples = std::move(*out);
      break;
    }
    case EngineKind::kPairwiseHash:
      result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kHash,
                                       &result.stats.baseline);
      break;
    case EngineKind::kPairwiseSortMerge:
      result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kSortMerge,
                                       &result.stats.baseline);
      break;
    case EngineKind::kPairwiseNestedLoop:
      result.tuples = PairwiseJoinPlan(query, PairwiseMethod::kNestedLoop,
                                       &result.stats.baseline);
      break;
    default:
      result.error = "not a baseline engine";
      return result;
  }
  result.ok = true;
  result.stats.output_tuples = result.tuples.size();
  result.stats.memory.intermediate_bytes =
      result.stats.baseline.max_intermediate_bytes;
  result.stats.memory.output_bytes =
      ResultOutputBytes(result.tuples.size(), query.num_attrs());
  return result;
}

// One shard of a baseline run. A single-shard plan scans the original
// relations; otherwise the restricted copy exists only inside this call
// — materialized when the worker picks the shard up, dropped when it
// finishes — so at most `threads` shard copies are resident at once
// instead of all 2^k.
EngineResult RunBaselineShard(const JoinQuery& query, const ShardPlan& plan,
                              int shard_id, EngineKind kind,
                              const std::vector<int>& gao) {
  if (plan.split_bits == 0) return RunBaseline(query, kind, gao);
  MaterializedShard ms = MaterializeShard(query, plan, shard_id);
  EngineResult r = RunBaseline(ms.query, kind, gao);
  // The materialized copy is this shard's resident input structure for
  // the whole run — count it, or the budget check would certify shards
  // whose input copy alone dwarfs the budget. (Single-shard baseline runs
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
    // Copied, not moved, even from a lone shard: handing a worker's
    // buffer to the result raised the peak RSS of a RunBatch loop over
    // MixedShapeBatch(8, 600, 8) from 36 to 43 MB.
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
  // but sorting restores the canonical facade order (Tetris shards
  // arrive unsorted, in the engine's SAO emission order).
  if (rows.size() > 0) {
    rows.Canonicalize();
    result.tuples = rows.ToTuples();
  } else {
    CanonicalizeTuples(&result.tuples);
  }
  result.ok = true;
  result.stats.output_tuples = result.tuples.size();
  result.stats.memory.output_bytes =
      ResultOutputBytes(result.tuples.size(), query.num_attrs());
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

  // Per-query support and order-hint checks: a query the engine cannot
  // run fails alone; the rest of the batch runs. Without a hint,
  // caller-built SortedIndexes supply Leapfrog's and Generic Join's trie
  // order, so index ablations reach the WCOJ baselines too.
  std::vector<QueryRun> runs;  // runnable queries, in input order
  for (size_t q = 0; q < n; ++q) {
    QueryRun run;
    run.q = q;
    run.query = queries[q].query;
    if (!options.orders.empty()) run.order = options.orders[q];
    std::string& error = batch.results[q].error;
    error = EngineSupportError(kind, *run.query);
    if (error.empty()) {
      error = OrderHintError(kind, run.order, run.query->num_attrs());
    }
    if (error.empty() && run.order.empty() && !queries[q].indexes.empty() &&
        (kind == EngineKind::kLeapfrog || kind == EngineKind::kGenericJoin)) {
      DeriveGaoFromIndexes(*run.query, queries[q].indexes, &run.order, &error);
    }
    if (error.empty()) runs.push_back(std::move(run));
  }
  if (runs.empty()) return batch;

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
  if (algo.has_value()) {
    for (QueryRun& run : runs) {
      run.base = queries[run.q].indexes;
      if (run.base.empty()) {
        std::vector<int> sao_pos;
        if (!run.order.empty()) {
          sao_pos.resize(run.query->num_attrs());
          for (size_t i = 0; i < run.order.size(); ++i) {
            sao_pos[run.order[i]] = static_cast<int>(i);
          }
        }
        for (const Atom& atom : run.query->atoms()) {
          bool built = false;
          std::shared_ptr<const SortedIndex> ix =
              cache.Get(atom.rel, LayoutFor(atom, sao_pos, depth), &built);
          if (built) ++batch.stats.indexes_built;
          else ++batch.stats.index_cache_hits;
          run.base.push_back(ix.get());
          pinned.push_back(std::move(ix));
        }
      }
      for (const Index* ix : run.base) {
        run.base_index_bytes += ix->MemoryBytes();
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
  // A sequential run never touches the pool (nor creates the global one).
  WorkStealingPool* pool = options.executor;
  if (pool == nullptr && options.threads != 1) {
    pool = &WorkStealingPool::Global();
  }
  const int width = pool != nullptr ? pool->threads() : 1;
  const int requested =
      options.threads == 0 ? width : std::max(1, options.threads);
  ShardPlanOptions popt;
  popt.shards = options.shards;
  popt.threads_hint = static_cast<int>(
      (static_cast<size_t>(requested) + runs.size() - 1) / runs.size());
  popt.memory_budget_bytes = budget;
  popt.depth = depth;
  std::vector<ShardPlan> plans;
  std::map<std::string, size_t> plan_of_signature;
  for (QueryRun& run : runs) {
    // A lone query has no plan to share.
    auto [it, fresh] = plan_of_signature.emplace(
        runs.size() > 1 ? PlanSignature(*run.query, depth) : "",
        plans.size());
    if (fresh) {
      plans.push_back(PlanShards(*run.query, popt));
      batch.stats.plan_bytes += plans.back().PlanningBytes();
    }
    run.plan = it->second;
  }
  batch.stats.plans = plans.size();

  // Tasks: every selected non-empty (query, shard) pair becomes one
  // executor task — no per-query barrier anywhere, so a skewed shard of
  // one query overlaps with the shards of the others.
  struct TaskRef {
    QueryRun* run = nullptr;
    int shard = 0;
  };
  std::vector<TaskRef> tasks;
  for (QueryRun& run : runs) {
    const ShardPlan& plan = plans[run.plan];
    run.outcomes.resize(plan.shards.size());
    run.selected.assign(plan.shards.size(), true);
    for (const Shard& shard : plan.shards) {
      if (queries[run.q].filter && !queries[run.q].filter(shard.box)) {
        run.selected[shard.id] = false;
      } else if (!shard.empty) {
        tasks.push_back({&run, shard.id});
      }
    }
  }
  batch.stats.tasks = tasks.size();

  // Execute on the pool. The deadline is checked at task granularity: an
  // unstarted task is abandoned and fails its query; a running one
  // completes.
  const int workers = std::max(
      1, std::min({requested, width, static_cast<int>(tasks.size())}));
  batch.stats.threads = static_cast<size_t>(workers);
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point{};
  const auto exec_start = std::chrono::steady_clock::now();
  ParallelFor(pool, workers, static_cast<int>(tasks.size()), [&](int t) {
    const TaskRef& task = tasks[static_cast<size_t>(t)];
    const QueryRun& run = *task.run;
    const ShardPlan& plan = plans[run.plan];
    ShardOutcome& slot = task.run->outcomes[task.shard];
    const auto start = std::chrono::steady_clock::now();
    if (has_deadline && start >= options.deadline) {
      slot.result.stats.engine = kind;
      slot.result.error = kDeadlineError;
      return;
    }
    if (algo.has_value()) {
      slot = RunTetrisShard(run, *algo, depth, plan, task.shard, kind);
    } else {
      slot.result =
          RunBaselineShard(*run.query, plan, task.shard, kind, run.order);
    }
    slot.result.stats.wall_ms = MsSince(start);
  });
  const double exec_ms = MsSince(exec_start);

  // Wall-time attribution. Shard tasks of different queries ran
  // concurrently, so summing a query's shard walls could let one query's
  // "time" exceed the whole batch wall. Instead the summed task time is
  // the batch's occupancy (stats.cpu_ms), and each query is attributed
  // the execution wall split by its share of that occupancy — attributed
  // times compare, and their sum never exceeds the batch wall.
  for (QueryRun& run : runs) {
    for (const ShardOutcome& o : run.outcomes) {
      const EngineResult& r = o.result;
      if (!r.ok && r.error == kDeadlineError) ++run.abandoned;
      else run.task_ms += r.stats.wall_ms;
    }
    batch.stats.cpu_ms += run.task_ms;
  }

  // Merge, deterministically per query in input order.
  size_t deadline_failures = 0;
  for (QueryRun& run : runs) {
    EngineResult& out = batch.results[run.q];
    if (run.abandoned > 0) {
      out.error = "deadline exceeded: " + std::to_string(run.abandoned) +
                  " of " + std::to_string(run.outcomes.size()) +
                  " shard tasks abandoned";
      ++deadline_failures;
      continue;
    }
    const ShardPlan& plan = plans[run.plan];
    const double attributed_ms =
        batch.stats.cpu_ms > 0.0
            ? exec_ms * (run.task_ms / batch.stats.cpu_ms)
            : exec_ms / static_cast<double>(runs.size());
    out = MergeShardRuns(*run.query, kind, plan, run.selected,
                         std::move(run.outcomes), budget,
                         run.base_index_bytes);
    out.stats.threads = batch.stats.threads;
    out.stats.wall_ms = attributed_ms;
    batch.stats.sum_query_ms += attributed_ms;
    // The shared base indexes stay resident for the whole run no matter
    // how fine the split — a budget below them is unsatisfiable by
    // sharding, and pretending per-shard peaks settle it would be lying.
    std::string note;
    if (budget > 0 && run.base_index_bytes > budget) {
      note = "budget " + std::to_string(budget) +
             "B is below the shared base indexes (" +
             std::to_string(run.base_index_bytes) +
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
      " base index builds served " + std::to_string(runs.size()) +
      (runs.size() == 1 ? " query" : " queries");
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
