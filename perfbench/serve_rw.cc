// serve_rw: nproc client threads share one JoinService over a registered
// R(A,B)/S(B,C)/T(A,C) pool. About 90% of operations are queries with
// Zipf-skewed popularity over {R⋈S, triangle, S⋈T} x {tetris-preloaded,
// tetris-reloaded}; the rest are 1-row AppendRows/DeleteRows. The result
// cache is smaller than the results' working set, so hits, patches of
// stale results and full recomputes (one-query RunBatch) all occur.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "engine/join_engine.h"
#include "layer_probes.h"
#include "server/join_service.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {

using tetris::EngineKind;
using tetris::JoinService;
using tetris::QueryRequest;
using tetris::QueryResponse;
using tetris::Relation;
using tetris::Tuple;

namespace {

constexpr size_t kRows = 400;
constexpr int kDomainBits = 8;
constexpr double kWriteShare = 0.10;
// Zipf exponent of the query popularity.
constexpr double kSkew = 2.0;
// Below the ~125 KB the six results occupy (both printed in the
// report), so the least popular results are evicted and recomputed.
constexpr size_t kCacheBytes = 100u << 10;

struct Kind {
  std::vector<std::string> relations;
  EngineKind engine;
};

// In popularity order; kind i is drawn with weight (i + 1)^-kSkew. The
// three shapes appear once per engine, in the same order.
const std::vector<Kind>& Kinds() {
  static const std::vector<Kind> kinds = {
      {{"R", "S"}, EngineKind::kTetrisPreloaded},
      {{"R", "S", "T"}, EngineKind::kTetrisPreloaded},
      {{"S", "T"}, EngineKind::kTetrisPreloaded},
      {{"R", "S"}, EngineKind::kTetrisReloaded},
      {{"R", "S", "T"}, EngineKind::kTetrisReloaded},
      {{"S", "T"}, EngineKind::kTetrisReloaded},
  };
  return kinds;
}

QueryRequest RequestFor(const Kind& k) {
  QueryRequest req;
  req.relations = k.relations;
  req.engine = k.engine;
  return req;
}

// One served query as the client saw it.
struct ServedQuery {
  double ms = 0.0;
  bool hit = false;
  bool patched = false;
  size_t rerun = 0;  // shards re-run (patched responses)
  size_t total = 0;  // shards in the plan (patched responses)
};

// Service traffic as its clients measured it.
struct ServiceObs {
  std::vector<ServedQuery> queries;
  std::vector<double> snap_us;  // RelationRegistry::Snap() from a client
  Samples mutations;            // AppendRows / DeleteRows latency

  // Adds a client's queries and Snap() times (its mutations are in its
  // LoopStats).
  void Append(const ServiceObs& o) {
    queries.insert(queries.end(), o.queries.begin(), o.queries.end());
    snap_us.insert(snap_us.end(), o.snap_us.begin(), o.snap_us.end());
  }
};

// How the served queries were answered, as shares of all of them.
struct Mix {
  double hit = 0.0, patched = 0.0, recomputed = 0.0;

  explicit Mix(const std::vector<ServedQuery>& qs) {
    for (const ServedQuery& q : qs) {
      hit += q.hit;
      patched += q.patched;
      recomputed += !q.hit && !q.patched;
    }
    const double n = qs.empty() ? 1.0 : static_cast<double>(qs.size());
    hit /= n;
    patched /= n;
    recomputed /= n;
  }
};

double MedianMs(const std::vector<ServedQuery>& qs, bool (*pick)(const ServedQuery&)) {
  std::vector<double> v;
  for (const ServedQuery& q : qs) {
    if (pick(q)) v.push_back(q.ms);
  }
  return Median(v);
}

// Result-cache and index-cache counters, read before and after the
// traced traffic.
struct ServiceCounters {
  size_t evictions = 0, invalidations = 0, survivals = 0;
  size_t builds = 0, promotes = 0, compactions = 0;

  static ServiceCounters Read(JoinService& svc) {
    const tetris::ResultCache& c = svc.cache();
    const tetris::IndexCache& i = svc.registry().index_cache();
    ServiceCounters out;
    out.evictions = c.evictions();
    out.invalidations = c.invalidations();
    out.survivals = c.survivals();
    out.builds = i.builds();
    out.promotes = i.promotes();
    out.compactions = i.compactions();
    return out;
  }
};

// Fills the server, engine.incremental, engine.index_cache and
// engine.batch.recompute_* metrics from `obs` and the counter deltas of
// `svc` since `before`.
void FillServiceLayers(const ServiceObs& obs, const ServiceCounters& before,
                       JoinService& svc, RunReport* report) {
  size_t rerun = 0, total = 0;
  for (const ServedQuery& q : obs.queries) {
    if (q.patched) {
      rerun += q.rerun;
      total += q.total;
    }
  }
  const Mix mix(obs.queries);
  const ServiceCounters after = ServiceCounters::Read(svc);
  auto delta = [](size_t a, size_t b) { return static_cast<double>(a - b); };
  auto& m = report->per_layer;
  m["server.result_cache.hit_rate"] = mix.hit;
  m["server.result_cache.evictions"] = delta(after.evictions, before.evictions);
  m["server.result_cache.invalidations"] = delta(after.invalidations, before.invalidations);
  m["server.result_cache.survivals"] = delta(after.survivals, before.survivals);
  m["server.result_cache.hit_p50_ms"] =
      MedianMs(obs.queries, [](const ServedQuery& q) { return q.hit; });
  m["server.registry.snap_us"] = Median(obs.snap_us);
  m["server.mutation_p50_ms"] = obs.mutations.Percentile(50);
  m["server.mutation_p90_ms"] = obs.mutations.Percentile(90);
  m["engine.incremental.patched_p50_ms"] =
      MedianMs(obs.queries, [](const ServedQuery& q) { return q.patched; });
  m["engine.incremental.patch_frac"] = mix.patched;
  m["engine.incremental.rerun_frac"] =
      total > 0 ? static_cast<double>(rerun) / total : 0.0;
  m["engine.batch.recompute_p50_ms"] =
      MedianMs(obs.queries, [](const ServedQuery& q) { return !q.hit && !q.patched; });
  m["engine.batch.recompute_frac"] = mix.recomputed;
  m["engine.index_cache.builds"] = delta(after.builds, before.builds);
  m["engine.index_cache.promotes"] = delta(after.promotes, before.promotes);
  m["engine.index_cache.compactions"] = delta(after.compactions, before.compactions);
  m["engine.index_cache.bytes"] =
      static_cast<double>(svc.registry().index_cache().MemoryBytes());
  m["server.admission.rejected"] = static_cast<double>(svc.rejected());
  m["server.admission.queued"] = static_cast<double>(svc.queued());
}

struct ClientResult {
  LoopStats loop;
  ServiceObs obs;  // answered queries; Snap() times in the traced phase
  std::vector<Span> spans;
};

void Client(JoinService* svc, uint64_t seed, uint32_t id, bool trace,
            Clock::time_point end, const std::atomic<bool>* go,
            ClientResult* out) {
  SpanLog log(trace, id);
  tetris::Rng rng(seed * 1000003 + id);
  const std::vector<Kind>& kinds = Kinds();
  std::vector<double> cdf;
  double sum = 0.0;
  for (size_t i = 0; i < kinds.size(); ++i) cdf.push_back(sum += std::pow(i + 1.0, -kSkew));
  const char* names[] = {"R", "S", "T"};
  std::vector<std::pair<std::string, Tuple>> mine;  // rows this client appended
  uint64_t request = 0;
  std::string error;
  while (!go->load()) std::this_thread::yield();
  while (Clock::now() < end) {
    const uint64_t req = (uint64_t{id} << 40) | ++request;
    ScopedSpan root(&log, "request", 0, req);
    ++out->loop.attempted;
    if (rng.Chance(kWriteShare)) {
      // Keep each relation's size steady: delete an own earlier append
      // once there are two, otherwise append a fresh random row.
      const bool del = mine.size() >= 2 || (!mine.empty() && rng.Chance(0.5));
      bool ok = false;
      double ms = 0.0;
      if (del) {
        const size_t i = rng.Below(mine.size());
        auto row = std::move(mine[i]);
        mine.erase(mine.begin() + i);
        ScopedSpan s(&log, "server.DeleteRows", root.id(), req);
        const auto t0 = Clock::now();
        ok = svc->DeleteRows(row.first, {row.second}, &error);
        ms = MsSince(t0);
      } else {
        const std::string name = names[rng.Below(3)];
        Tuple t = {rng.Below(uint64_t{1} << kDomainBits),
                   rng.Below(uint64_t{1} << kDomainBits)};
        ScopedSpan s(&log, "server.AppendRows", root.id(), req);
        const auto t0 = Clock::now();
        ok = svc->AppendRows(name, {t}, &error);
        ms = MsSince(t0);
        if (ok) mine.emplace_back(name, std::move(t));
      }
      if (ok) {
        out->loop.mutations.Add(ms);
      } else {
        ++out->loop.failed;
        out->loop.mutations.AddFailed();
      }
      continue;
    }
    const double u = rng.NextDouble() * sum;
    size_t k = 0;
    while (k + 1 < cdf.size() && u >= cdf[k]) ++k;
    if (trace) {
      ScopedSpan s(&log, "server.registry.Snap", root.id(), req);
      const auto t0 = Clock::now();
      tetris::RegistrySnapshot snap = svc->registry().Snap();
      out->obs.snap_us.push_back(MsSince(t0) * 1000.0);
    }
    QueryResponse r;
    double ms = 0.0;
    {
      ScopedSpan s(&log, "server.Execute", root.id(), req);
      const auto t0 = Clock::now();
      r = svc->Execute(RequestFor(kinds[k]));
      ms = MsSince(t0);
    }
    if (r.rejected || !r.result->ok) {
      ++out->loop.failed;
      out->loop.queries.AddFailed();
      continue;
    }
    out->loop.queries.Add(ms);
    ++out->loop.answered;
    out->obs.queries.push_back({ms, r.cache_hit, r.patched, r.shards_rerun, r.shards_total});
  }
  out->spans = log.spans();
}

// Runs the client threads for `seconds`; `trace` records spans.
std::vector<ClientResult> RunClients(JoinService* svc, uint64_t seed,
                                     int clients, double seconds, bool trace,
                                     uint32_t first_id, LoopStats* merged) {
  std::vector<ClientResult> results(clients);
  const auto start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    // Starts and joins the clients, also when spawning one throws.
    struct StartAndJoin {
      std::atomic<bool>* go;
      std::vector<std::thread>* threads;
      ~StartAndJoin() {
        go->store(true);
        for (std::thread& t : *threads) t.join();
      }
    } start_and_join{&go, &threads};
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(Client, svc, seed, first_id + c, trace, end, &go,
                           &results[c]);
    }
  }
  merged->wall_s = MsSince(start) / 1000.0;
  for (const ClientResult& r : results) merged->Merge(r.loop);
  return results;
}

// Builds the service and primes each request kind once; `working_set`
// is the bytes the six results would take in the result cache.
std::unique_ptr<JoinService> SetUp(uint64_t seed, size_t* working_set,
                                   RunReport* report) {
  tetris::ServiceOptions opts;
  opts.cache_bytes = kCacheBytes;
  auto svc = std::make_unique<JoinService>(opts);
  const Relation relations[] = {
      tetris::RandomRelation("R", {"A", "B"}, kRows, kDomainBits, seed),
      tetris::RandomRelation("S", {"B", "C"}, kRows, kDomainBits, seed + 1),
      tetris::RandomRelation("T", {"A", "C"}, kRows, kDomainBits, seed + 2)};
  std::string error;
  for (const Relation& r : relations) {
    if (!svc->Register(r, &error)) report->Mismatch("register: " + error);
  }
  *working_set = 0;
  for (const Kind& k : Kinds()) {
    QueryResponse r = svc->Execute(RequestFor(k));
    if (!r.result->ok) {
      report->Mismatch("prime: " + r.result->error);
      continue;
    }
    *working_set += tetris::ResultCache::EstimateBytes(*r.result);
  }
  return svc;
}

// The final snapshot, its distinct query shapes and their generic-join
// answers: what the answer check compares against and the probes run on.
struct FinalState {
  tetris::RegistrySnapshot snap;
  std::vector<std::unique_ptr<tetris::JoinQuery>> queries;
  std::vector<std::vector<Tuple>> outputs;

  ProbeInput Probe(uint64_t seed) const {
    ProbeInput in;
    for (size_t i = 0; i < queries.size(); ++i) {
      in.queries.push_back(queries[i].get());
      in.outputs.push_back(&outputs[i]);
      in.depth = std::max(in.depth, queries[i]->MinDepth());
    }
    for (const auto& [name, v] : snap.relations) in.relations.push_back(v.rel.get());
    in.seed = seed;
    return in;
  }
};

// A row whose append changes kind `k`'s answer: for the kinds reading R,
// an R row closing a new triangle; for S⋈T, a T row extending it. Empty
// when the data offers none.
std::pair<std::string, Tuple> ChangingRow(const tetris::RegistrySnapshot& snap,
                                          const Kind& k) {
  const Relation& r = *snap.Find("R")->rel;
  const Relation& s = *snap.Find("S")->rel;
  const Relation& t = *snap.Find("T")->rel;
  const bool reads_r = k.relations.front() == "R";
  for (size_t i = 0; i < s.size(); ++i) {
    const uint64_t b = s.row(i)[0], c = s.row(i)[1];
    if (reads_r) {
      for (size_t j = 0; j < t.size(); ++j) {
        const Tuple row = {t.row(j)[0], b};
        if (t.row(j)[1] == c && !r.Contains(row)) return {"R", row};
      }
    } else {
      for (uint64_t a = 0; a < (uint64_t{1} << kDomainBits); ++a) {
        if (!t.Contains({a, c})) return {"T", {a, c}};
      }
    }
  }
  return {};
}

// Generic-join answers of the three query shapes over `snap`.
FinalState Reference(tetris::RegistrySnapshot snap, RunReport* report) {
  FinalState f;
  f.snap = std::move(snap);
  for (const Kind& k : Kinds()) {
    if (k.engine != EngineKind::kTetrisPreloaded) continue;  // one per shape
    std::vector<const Relation*> rels;
    for (const std::string& n : k.relations) rels.push_back(f.snap.Find(n)->rel.get());
    f.queries.push_back(std::make_unique<tetris::JoinQuery>(tetris::JoinQuery::Build(rels)));
    tetris::EngineResult gj = tetris::RunJoin(*f.queries.back(), EngineKind::kGenericJoin);
    if (!gj.ok) report->Mismatch("generic join failed: " + gj.error);
    f.outputs.push_back(std::move(gj.tuples));
  }
  return f;
}

// After the clients stop, for every request kind: serve it (so its result
// is cached), append a row that changes its answer, and serve it again
// through the cache (hit or patched); that answer must equal an uncached
// Execute and a generic-join RunJoin over the snapshot. Returns the final
// snapshot's references for the probes.
FinalState CheckFinal(JoinService* svc, RunReport* report) {
  std::string error;
  for (size_t i = 0; i < Kinds().size(); ++i) {
    const Kind& k = Kinds()[i];
    QueryRequest req = RequestFor(k);
    svc->Execute(req);
    const auto [name, row] = ChangingRow(svc->registry().Snap(), k);
    if (row.empty() || !svc->AppendRows(name, {row}, &error)) {
      report->Mismatch("final write failed: " + error);
      continue;
    }
    const QueryResponse served = svc->Execute(req);
    req.use_cache = false;
    const QueryResponse fresh = svc->Execute(req);
    const FinalState ref = Reference(svc->registry().Snap(), report);
    const std::vector<Tuple>& want = ref.outputs[i % ref.outputs.size()];
    const std::string what = std::string(tetris::EngineKindName(k.engine)) +
                             " query " + std::to_string(i);
    if (!served.result->ok || !fresh.result->ok) {
      report->Mismatch(what + " failed in the final check");
      continue;
    }
    SameTuples(served.result->tuples, want, what + " (served)", report);
    SameTuples(fresh.result->tuples, want, what + " (uncached)", report);
  }
  return Reference(svc->registry().Snap(), report);
}

}  // namespace

RunReport RunServeRw(const RunConfig& cfg) {
  RunReport report;
  std::unique_ptr<JoinService> service;
  size_t working_set = 0;
  const double setup_s = MedianSetupSeconds(kSetupReps, kSetupSeconds, [&] {
    service.reset();  // the previous service goes before the next is built
    service = SetUp(cfg.seed, &working_set, &report);
  });
  if (!report.correct) return report;
  JoinService* svc = service.get();
  const int clients = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  ServiceObs plain, traced;
  ServiceCounters before;
  TimedPhase(cfg, setup_s, &report, [&](double seconds, bool trace) {
    if (trace) before = ServiceCounters::Read(*svc);
    LoopStats merged;
    const std::vector<ClientResult> results =
        RunClients(svc, trace ? cfg.seed ^ 0x7ace : cfg.seed, clients, seconds,
                   trace, trace ? 1 + clients : 1, &merged);
    ServiceObs& obs = trace ? traced : plain;
    for (const ClientResult& c : results) {
      obs.Append(c.obs);
      report.spans.insert(report.spans.end(), c.spans.begin(), c.spans.end());
    }
    obs.mutations = merged.mutations;
    return merged;
  });
  const Mix mix(plain.queries);
  report.info["result_working_set_bytes"] = static_cast<double>(working_set);
  report.info["result_cache_bytes"] = static_cast<double>(kCacheBytes);
  report.info["hit_share"] = mix.hit;
  report.info["patch_share"] = mix.patched;
  report.info["recompute_share"] = mix.recomputed;

  if (!cfg.trace) {
    CheckFinal(svc, &report);
    return report;
  }
  FillServiceLayers(traced, before, *svc, &report);
  const FinalState final_state = CheckFinal(svc, &report);
  if (!report.correct) return report;
  SpanLog log(true, 0);
  RunLayerProbes(final_state.Probe(cfg.seed), &log, 1, &report);
  report.spans.insert(report.spans.end(), log.spans().begin(), log.spans().end());
  return report;
}

}  // namespace perfbench
