// The traced run. The benchmark cannot see inside gyo_serve, so it replays
// each request in-process through the same public calls server.cc makes, in
// the same order (decode -> plan lookup -> result key -> get -> TryAdmit ->
// ExecuteAdmitted -> put -> encode), with the client's request encode and
// response decode around them. One span is recorded per call; spans live in
// memory and are written out when the run ends. The relational kernels are
// timed separately by a serial statement-by-statement replay of each
// query's program.

#include <algorithm>
#include <fstream>
#include <optional>
#include <thread>
#include <utility>

#include "cache/plan_cache.h"
#include "cache/result_cache.h"
#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "gyo/gyo.h"
#include "rel/ops.h"
#include "rel/solver.h"
#include "servebench.h"

namespace servebench {

using gyo::Relation;
namespace serve = gyo::serve;

namespace {

enum SpanKind : uint8_t {
  kRequest,
  kRequestEncode,
  kRequestDecode,
  kPlanLookup,
  kProgramBuild,
  kGyoReduce,
  kCompile,
  kResultKey,
  kResultGet,
  kAdmit,
  kExecute,
  kResultPut,
  kResponseEncode,
  kResponseDecode,
  kNumKinds,
};

constexpr const char* kSpanName[kNumKinds] = {
    "request",           "serve.request_encode", "serve.request_decode",
    "cache.plan_lookup", "query.program_build",  "gyo.reduce",
    "exec.compile",      "cache.result_key",     "cache.result_get",
    "exec.admit",        "exec.execute",         "cache.result_put",
    "serve.response_encode", "serve.response_decode"};

enum Layer : uint8_t { kServe, kCache, kExec, kGyo, kQuery, kNumLayers };
constexpr const char* kLayerName[kNumLayers] = {"serve", "cache", "exec",
                                                "gyo", "query"};
constexpr Layer kSpanLayer[kNumKinds] = {
    kServe, kServe, kServe, kCache, kQuery, kGyo,   kExec,
    kCache, kCache, kExec,  kExec,  kCache, kServe, kServe};

struct Span {
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index in the same thread's span list, -1 for a root
  SpanKind kind;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// One replay thread's spans. With recording off, Begin/End cost nothing
// but the branch, and only the request root is timed (by the caller).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int Begin(SpanKind kind, int parent, uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{request, NowNs(), 0, parent, kind});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }
  // A span measured elsewhere and placed at `start_ns`.
  int Add(SpanKind kind, int parent, uint64_t request, int64_t start_ns,
          int64_t duration_ns) {
    spans_.push_back(
        Span{request, start_ns, start_ns + duration_ns, parent, kind});
    return static_cast<int>(spans_.size()) - 1;
  }
  const Span& at(int span) const { return spans_[static_cast<size_t>(span)]; }
  bool enabled() const { return enabled_; }
  std::vector<Span>& spans() { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// The server's shared state, rebuilt in-process with gyo_serve's defaults.
struct Pipeline {
  Pipeline()
      : pool(PoolOptions()),
        plan_cache(PlanOptions()),
        result_cache(ResultOptions()) {}
  static gyo::exec::ExecutorPool::Options PoolOptions() {
    gyo::exec::ExecutorPool::Options o;
    o.threads = kServerThreads;
    o.max_concurrent_queries = kServerSlots;
    return o;
  }
  static gyo::cache::PlanCache::Options PlanOptions() {
    gyo::cache::PlanCache::Options o;
    o.max_entries = kPlanCacheEntries;
    return o;
  }
  static gyo::cache::ResultCache::Options ResultOptions() {
    gyo::cache::ResultCache::Options o;
    o.max_bytes = kResultCacheBytes;
    return o;
  }
  gyo::exec::ExecutorPool pool;
  gyo::cache::PlanCache plan_cache;
  gyo::cache::ResultCache result_cache;
};

struct ReplayTotals {
  int64_t requests = 0;
  int64_t failed = 0;
  double latency_ms = 0.0;  // sum of request root durations
  double request_bytes = 0.0;
  double response_bytes = 0.0;

  void Merge(const ReplayTotals& o) {
    requests += o.requests;
    failed += o.failed;
    latency_ms += o.latency_ms;
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
  }
  double MeanLatencyMs() const {
    return requests > 0 ? latency_ms / static_cast<double>(requests) : 0.0;
  }
};

// Re-runs the builders PlanCache::GetOrBuild ran inside a plan miss and
// records them as children of its span: the program build with the GYO
// reduction nested in it, then the plan compile. They are timed after the
// request finished, so they never add to its latency.
void RecordPlanBuild(const gyo::DatabaseSchema& schema,
                     const gyo::AttrSet& target,
                     gyo::cache::PlanStrategy resolved, int plan_span,
                     uint64_t id, SpanRecorder* rec) {
  const int64_t t0 = NowNs();
  gyo::GyoResult reduced = gyo::GyoReduceFast(schema, target);
  const int64_t t1 = NowNs();
  std::optional<gyo::Program> program =
      resolved == gyo::cache::PlanStrategy::kYannakakis
          ? gyo::YannakakisProgram(schema, target)
          : std::optional<gyo::Program>(gyo::CCPrunedProgram(schema, target));
  const int64_t t2 = NowNs();
  gyo::exec::PhysicalPlan plan = gyo::exec::PhysicalPlan::Compile(*program);
  const int64_t t3 = NowNs();
  const int64_t start = rec->at(plan_span).start_ns;
  const int build = rec->Add(kProgramBuild, plan_span, id, start,
                             (t1 - t0) + (t2 - t1));
  rec->Add(kGyoReduce, build, id, start, t1 - t0);
  rec->Add(kCompile, plan_span, id, rec->at(build).end_ns, t3 - t2);
  (void)reduced;
  (void)plan;
}

// One request through the server's pipeline. Returns false on a failure.
bool ReplayOne(Pipeline& p, const Base& base,
               const serve::QueryRequest& request, uint64_t id,
               uint64_t submitter, SpanRecorder* rec, ReplayTotals* totals) {
  const Clock::time_point begin = Clock::now();
  const int root = rec->Begin(kRequest, -1, id);

  int s = rec->Begin(kRequestEncode, root, id);
  const std::vector<uint8_t> frame = serve::EncodeQueryRequest(request);
  rec->End(s);

  // Server side: the payload after the header and type byte.
  constexpr size_t kSkip = serve::kFrameHeaderBytes + 1;
  s = rec->Begin(kRequestDecode, root, id);
  gyo::Catalog catalog;
  serve::QueryRequest req;
  gyo::DatabaseSchema schema;
  gyo::AttrSet target;
  std::string error;
  const bool decoded = serve::DecodeQueryRequest(
      frame.data() + kSkip, frame.size() - kSkip, catalog, &req, &schema,
      &target, &error);
  rec->End(s);
  if (!decoded) return false;

  const int plan_span = rec->Begin(kPlanLookup, root, id);
  std::optional<gyo::cache::PlanCache::Result> planned =
      p.plan_cache.GetOrBuild(schema, target,
                              static_cast<gyo::cache::PlanStrategy>(
                                  req.strategy));
  rec->End(plan_span);
  if (!planned.has_value()) return false;

  const uint64_t variant = (static_cast<uint64_t>(planned->resolved) << 1) | 1;
  s = rec->Begin(kResultKey, root, id);
  const gyo::cache::ResultKey key =
      gyo::cache::MakeResultKey(schema, target, req.states, variant);
  rec->End(s);

  s = rec->Begin(kResultGet, root, id);
  std::optional<gyo::cache::ResultCache::Value> cached =
      p.result_cache.Get(key);
  rec->End(s);

  serve::QueryResponse resp;
  if (cached.has_value()) {
    resp.result = std::move(cached->result);
    resp.stats = cached->stats;
    resp.query_stats.state_cache_hits = 1;
  } else {
    s = rec->Begin(kAdmit, root, id);
    gyo::exec::ExecutorPool::AdmitResult admit = p.pool.TryAdmit(submitter);
    rec->End(s);
    if (admit.admission == nullptr) return false;
    s = rec->Begin(kExecute, root, id);
    {
      gyo::exec::ExecContext ctx;
      ctx.deterministic = req.deterministic;
      ctx.query_stats = &resp.query_stats;
      std::vector<Relation> states = planned->plan.ExecuteAdmitted(
          req.states, ctx, *admit.admission, &resp.stats);
      admit.admission.reset();
      resp.result = std::move(states.back());
    }
    rec->End(s);
    s = rec->Begin(kResultPut, root, id);
    p.result_cache.Put(key,
                       gyo::cache::ResultCache::Value{resp.result, resp.stats});
    rec->End(s);
  }

  s = rec->Begin(kResponseEncode, root, id);
  const std::vector<uint8_t> out = serve::EncodeQueryResponse(resp);
  rec->End(s);

  // Client side again.
  s = rec->Begin(kResponseDecode, root, id);
  serve::QueryResponse reply;
  const bool reply_ok = serve::DecodeQueryResponse(
      out.data() + kSkip, out.size() - kSkip, base.target, &reply, &error);
  rec->End(s);
  rec->End(root);
  totals->latency_ms +=
      std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
  totals->request_bytes += static_cast<double>(frame.size());
  totals->response_bytes += static_cast<double>(out.size());

  if (rec->enabled() && !planned->hit) {
    RecordPlanBuild(schema, target, planned->resolved, plan_span, id, rec);
  }
  return reply_ok && MatchesReference(reply.result, base);
}

// Runs the workload's clients as in-process threads for `requests` requests
// or `seconds` seconds, whichever ends first.
ReplayTotals ReplayPhase(Pipeline& p, const Workload& w,
                         std::vector<RequestSource>& sources,
                         std::vector<uint64_t>& next, int64_t requests,
                         double seconds, bool record,
                         std::vector<std::vector<Span>>* spans) {
  const int n = w.clients;
  const Clock::time_point end =
      seconds > 0 ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds))
                  : Clock::time_point::max();
  std::vector<ReplayTotals> totals(static_cast<size_t>(n));
  std::vector<SpanRecorder> recorders(static_cast<size_t>(n),
                                      SpanRecorder(record));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    const int64_t share = requests / n + (c < requests % n ? 1 : 0);
    threads.emplace_back([&, c, share] {
      const size_t i = static_cast<size_t>(c);
      for (int64_t k = 0; k < share && Clock::now() < end; ++k) {
        const uint64_t id =
            next[i]++ * static_cast<uint64_t>(n) + static_cast<uint64_t>(c);
        const serve::QueryRequest& request = sources[i].For(id);
        ++totals[i].requests;
        if (!ReplayOne(p, w.BaseOf(id), request, id,
                       static_cast<uint64_t>(c) + 1, &recorders[i],
                       &totals[i])) {
          ++totals[i].failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ReplayTotals sum;
  for (const ReplayTotals& t : totals) sum.Merge(t);
  if (spans != nullptr) {
    for (SpanRecorder& r : recorders) spans->push_back(std::move(r.spans()));
  }
  return sum;
}

// Serial replay of the programs through the kernels, summed by kind.
struct KernelTotals {
  double semijoin_ms = 0.0;
  double join_ms = 0.0;
  double project_ms = 0.0;
  double semijoin_rows_in = 0.0;
  double semijoin_rows_out = 0.0;
  double statements = 0.0;
  int programs = 0;
};

KernelTotals ReplayKernels(const Workload& w) {
  constexpr size_t kMaxBases = 64;
  constexpr int kRepeats = 3;
  KernelTotals k;
  gyo::cache::PlanCache plans(Pipeline::PlanOptions());
  const size_t bases = std::min(kMaxBases, w.bases.size());
  for (size_t b = 0; b < bases; ++b) {
    const Base& base = w.bases[b];
    // The same program the server executes for this query.
    std::optional<gyo::cache::PlanCache::Result> planned = plans.GetOrBuild(
        base.schema, base.target, gyo::cache::PlanStrategy::kAuto);
    const gyo::Program& program = planned->program;
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::vector<Relation> states = base.states;
      for (const gyo::Program::Statement& st : program.Statements()) {
        const Relation& lhs = states[static_cast<size_t>(st.lhs)];
        const Clock::time_point t0 = Clock::now();
        Relation out{gyo::AttrSet()};
        double* bucket = nullptr;
        switch (st.kind) {
          case gyo::Program::Statement::Kind::kSemijoin:
            out = gyo::Semijoin(lhs, states[static_cast<size_t>(st.rhs)]);
            bucket = &k.semijoin_ms;
            k.semijoin_rows_in += static_cast<double>(lhs.NumRows());
            break;
          case gyo::Program::Statement::Kind::kJoin:
            out = gyo::NaturalJoin(lhs, states[static_cast<size_t>(st.rhs)]);
            bucket = &k.join_ms;
            break;
          case gyo::Program::Statement::Kind::kProject:
            out = gyo::Project(lhs, st.target);
            bucket = &k.project_ms;
            break;
        }
        *bucket += std::chrono::duration<double, std::milli>(Clock::now() - t0)
                       .count();
        if (st.kind == gyo::Program::Statement::Kind::kSemijoin) {
          k.semijoin_rows_out += static_cast<double>(out.NumRows());
        }
        states.push_back(std::move(out));
      }
    }
    k.statements += static_cast<double>(program.NumStatements());
    ++k.programs;
  }
  // Per program: average the repeats and the bases.
  const double runs = static_cast<double>(k.programs) * kRepeats;
  k.semijoin_ms /= runs;
  k.join_ms /= runs;
  k.project_ms /= runs;
  k.semijoin_rows_in /= runs;
  k.semijoin_rows_out /= runs;
  k.statements /= static_cast<double>(k.programs);
  return k;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& spans) {
  std::ofstream out(path);
  out << "thread\tspan\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (size_t t = 0; t < spans.size(); ++t) {
    for (size_t i = 0; i < spans[t].size(); ++i) {
      const Span& s = spans[t][i];
      out << t << '\t' << i << '\t' << s.parent << '\t' << s.request << '\t'
          << kSpanName[s.kind] << '\t' << s.start_ns << '\t' << s.end_ns
          << '\n';
    }
  }
}

}  // namespace

TraceOutcome RunTrace(const Workload& w, double seconds,
                      const TraceInputs& in, const std::string& spans_path) {
  Pipeline pipeline;
  std::vector<RequestSource> sources;
  sources.reserve(static_cast<size_t>(w.clients));
  for (int c = 0; c < w.clients; ++c) sources.emplace_back(w);
  std::vector<uint64_t> next(static_cast<size_t>(w.clients), 0);

  ReplayTotals all = ReplayPhase(pipeline, w, sources, next,
                                 w.warmup_requests, 0.0, false, nullptr);
  // Recording off and on alternate in short rounds, so drift over the run
  // does not show up as tracing overhead.
  constexpr int kRounds = 4;
  ReplayTotals off, on;
  std::vector<std::vector<Span>> spans;
  for (int round = 0; round < kRounds; ++round) {
    off.Merge(ReplayPhase(pipeline, w, sources, next, INT64_MAX,
                          seconds / (2 * kRounds), false, nullptr));
    on.Merge(ReplayPhase(pipeline, w, sources, next, INT64_MAX,
                         seconds / (2 * kRounds), true, &spans));
  }
  all.Merge(off);
  all.Merge(on);
  WriteSpans(spans_path, spans);

  // Total and self time per span kind over the traced phase.
  double total_ms[kNumKinds] = {};
  double self_ms[kNumKinds] = {};
  for (const std::vector<Span>& list : spans) {
    std::vector<int64_t> child_ns(list.size(), 0);
    for (const Span& s : list) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const int64_t dur = list[i].end_ns - list[i].start_ns;
      total_ms[list[i].kind] += static_cast<double>(dur) * 1e-6;
      // Summed without clamping: a re-run builder child may outlast its
      // parent on one request, and the totals stay exact over all of them.
      self_ms[list[i].kind] += static_cast<double>(dur - child_ns[i]) * 1e-6;
    }
  }
  const double reqs = static_cast<double>(std::max<int64_t>(1, on.requests));
  auto per_req = [&](SpanKind kind) { return total_ms[kind] / reqs; };
  double layer_self[kNumLayers] = {};
  double covered = 0.0;
  for (int k = kRequestEncode; k < kNumKinds; ++k) {
    layer_self[kSpanLayer[k]] += self_ms[k];
    covered += self_ms[k];
  }

  const KernelTotals kern = ReplayKernels(w);
  const ReplyTotals& r = in.replies;
  const double executed = static_cast<double>(r.executed);
  auto per_exec = [&](double v) { return Ratio(v, executed); };
  const double run_ms = per_exec(r.run_seconds) * 1e3;
  const double kernel_ms = kern.semijoin_ms + kern.join_ms + kern.project_ms;
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const serve::StatusResponse& s0 = in.status_before;
  const serve::StatusResponse& s1 = in.status_after;
  const double plan_hits = delta(s1.plan_cache_hits, s0.plan_cache_hits);
  const double plan_misses = delta(s1.plan_cache_misses, s0.plan_cache_misses);
  const double result_hits = delta(s1.result_cache_hits, s0.result_cache_hits);
  const double result_misses =
      delta(s1.result_cache_misses, s0.result_cache_misses);

  TraceOutcome outcome;
  outcome.attempted = all.requests;
  outcome.failed = all.failed;
  std::vector<Metric>& m = outcome.metrics;
  m.push_back({"serve.request_encode_ms", per_req(kRequestEncode), "ms"});
  m.push_back({"serve.request_decode_ms", per_req(kRequestDecode), "ms"});
  m.push_back({"serve.response_codec_ms",
               per_req(kResponseEncode) + per_req(kResponseDecode), "ms"});
  m.push_back({"serve.request_kb", on.request_bytes / 1024.0 / reqs, "KiB"});
  m.push_back({"serve.response_kb", on.response_bytes / 1024.0 / reqs, "KiB"});
  m.push_back({"serve.io_residual_ms",
               in.untraced_mean_ms - off.MeanLatencyMs(), "ms"});
  m.push_back({"cache.plan_lookup_ms", per_req(kPlanLookup), "ms"});
  m.push_back({"cache.plan_hit_ratio",
               Ratio(plan_hits, plan_hits + plan_misses), "ratio"});
  m.push_back({"cache.result_key_ms", per_req(kResultKey), "ms"});
  m.push_back({"cache.result_get_ms", per_req(kResultGet), "ms"});
  m.push_back({"cache.result_put_ms", per_req(kResultPut), "ms"});
  m.push_back({"cache.result_hit_ratio",
               Ratio(result_hits, result_hits + result_misses), "ratio"});
  m.push_back({"exec.queue_wait_ms", per_exec(r.queue_wait_seconds) * 1e3,
               "ms"});
  m.push_back({"exec.queue_depth_at_admit",
               per_exec(static_cast<double>(r.queue_depth_at_admit)),
               "count"});
  m.push_back({"exec.run_ms", run_ms, "ms"});
  m.push_back({"exec.compile_ms", per_req(kCompile), "ms"});
  m.push_back({"exec.tasks_per_query", per_exec(static_cast<double>(r.tasks)),
               "count"});
  m.push_back({"exec.morsels_per_query",
               per_exec(static_cast<double>(r.morsels)), "count"});
  m.push_back({"exec.steal_ratio",
               Ratio(static_cast<double>(r.tasks_stolen),
                     static_cast<double>(r.tasks)),
               "ratio"});
  m.push_back({"exec.affinity_hit_ratio",
               Ratio(static_cast<double>(r.affinity_hits),
                     static_cast<double>(r.affinity_hits + r.affinity_misses)),
               "ratio"});
  m.push_back({"exec.task_overhead_us",
               executed > 0 ? Ratio(run_ms - kernel_ms, kern.statements) * 1e3
                            : 0.0,
               "us"});
  m.push_back({"exec.peak_state_mb",
               per_exec(static_cast<double>(r.peak_state_bytes)) /
                   (1024.0 * 1024.0),
               "MiB"});
  m.push_back({"exec.admit_ms", per_req(kAdmit), "ms"});
  m.push_back({"exec.execute_ms", per_req(kExecute), "ms"});
  m.push_back({"rel.semijoin_ms", kern.semijoin_ms, "ms"});
  m.push_back({"rel.join_ms", kern.join_ms, "ms"});
  m.push_back({"rel.project_ms", kern.project_ms, "ms"});
  m.push_back({"rel.semijoin_keep_ratio",
               Ratio(kern.semijoin_rows_out, kern.semijoin_rows_in), "ratio"});
  m.push_back({"rel.pruned_ratio",
               Ratio(per_exec(static_cast<double>(r.pruned_rows)),
                     kern.semijoin_rows_in),
               "ratio"});
  m.push_back({"rel.max_intermediate_rows",
               Ratio(static_cast<double>(r.max_intermediate_rows),
                     static_cast<double>(r.replies)),
               "rows"});
  m.push_back({"rel.statements_per_query", kern.statements, "count"});
  m.push_back({"gyo.reduce_ms", per_req(kGyoReduce), "ms"});
  m.push_back({"query.program_build_ms", per_req(kProgramBuild), "ms"});
  for (int l = 0; l < kNumLayers; ++l) {
    m.push_back({std::string("layer.") + kLayerName[l] + "_self_ms",
                 layer_self[l] / reqs, "ms"});
  }
  m.push_back({"trace.request_ms", per_req(kRequest), "ms"});
  m.push_back({"trace.coverage_ratio", Ratio(covered, total_ms[kRequest]),
               "ratio"});
  m.push_back({"trace.untraced_pipeline_ms", off.MeanLatencyMs(), "ms"});
  m.push_back({"trace.overhead_ms", on.MeanLatencyMs() - off.MeanLatencyMs(),
               "ms"});
  return outcome;
}

}  // namespace servebench
