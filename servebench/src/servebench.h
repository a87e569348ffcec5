#ifndef SERVEBENCH_SERVEBENCH_H_
#define SERVEBENCH_SERVEBENCH_H_

// The gyo_serve end-to-end benchmark: seeded workloads, a closed-loop load
// driver against a spawned gyo_serve process, and an in-process traced
// replay of the server's request pipeline. See servebench/NOTES.md.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rel/relation.h"
#include "schema/schema.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "util/attr_set.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// gyo_serve's defaults, which the benchmark runs with.
constexpr int64_t kResultCacheBytes = 32ll << 20;
constexpr size_t kPlanCacheEntries = 128;
// The fixed server shape: --threads 2 --max-concurrent-queries 2.
constexpr int kServerThreads = 2;
constexpr int kServerSlots = 2;

// ---------------------------------------------------------------------------
// Workloads (workloads.cc)

// One distinct query: schema, target, base states, and the reference answer
// computed by a second route (serial join of every relation, then project).
struct Base {
  std::string schema_spec;
  std::string target_spec;
  // Parsed with a fresh catalog, so attribute ids match the server's.
  gyo::DatabaseSchema schema;
  gyo::AttrSet target;
  std::vector<gyo::Relation> states;
  gyo::Relation reference{gyo::AttrSet()};
};

struct Workload {
  std::string name;
  int clients = 2;
  // Every request appends one reserved row of fresh values to the first
  // relation. It joins nothing, so the answer is the base's reference while
  // the result-cache key is new.
  bool fresh_row = false;
  // Requests sent before timing starts, sized so the caches the workload
  // fills are in steady state.
  int64_t warmup_requests = 0;
  std::vector<Base> bases;

  // Request ids interleave the clients (client c sends ids c, c + clients,
  // ...); bases are cycled round-robin over the ids.
  const Base& BaseOf(uint64_t request_id) const {
    return bases[request_id % bases.size()];
  }
};

// Generates `name` from `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// One client's requests, one per base: the base's states plus, in the
// fresh-row workloads, the fresh row, which is rewritten in place for every
// request id.
class RequestSource {
 public:
  explicit RequestSource(const Workload& workload);
  const gyo::serve::QueryRequest& For(uint64_t request_id);

 private:
  bool fresh_row_;
  std::vector<gyo::serve::QueryRequest> requests_;
};

// Set comparison against the reference; canonicalizes `result`.
bool MatchesReference(const gyo::Relation& result, const Base& base);

// ---------------------------------------------------------------------------
// The gyo_serve process (server_process.cc)

struct ServerExit {
  bool clean = false;  // exited 0 after the SIGTERM drain
  double cpu_seconds = 0.0;
  double max_rss_mib = 0.0;
};

class ServerProcess {
 public:
  ServerProcess() = default;
  // Kills and reaps a server that was not stopped.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `binary` with the benchmark's fixed flags and scrapes
  // "listening on HOST:PORT" from its stdout.
  bool Start(const std::string& binary, std::string* error);
  int port() const { return port_; }
  // User + system CPU the server has used so far (/proc/PID/stat).
  double CpuSeconds() const;
  // Reads the peak RSS, sends SIGTERM, waits for the drain, and reads the
  // CPU time through wait4.
  bool Stop(ServerExit* exit, std::string* error);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

// ---------------------------------------------------------------------------
// Closed-loop load (load.cc)

// QueryStats and Program::Stats summed over correct replies.
struct ReplyTotals {
  int64_t replies = 0;
  // Replies the server executed (not answered from the result cache).
  int64_t executed = 0;
  double queue_wait_seconds = 0.0;
  double run_seconds = 0.0;
  int64_t tasks = 0;
  int64_t morsels = 0;
  int64_t peak_state_bytes = 0;
  int64_t tasks_stolen = 0;
  int64_t affinity_hits = 0;
  int64_t affinity_misses = 0;
  int64_t queue_depth_at_admit = 0;
  int64_t pruned_rows = 0;  // Bloom + SIP + zone-map pruned probe rows
  int64_t max_intermediate_rows = 0;

  void Add(const gyo::serve::QueryResponse& response);
  void Merge(const ReplyTotals& other);
};

// A correct reply that completed inside the timed window.
struct Sample {
  double done_s;  // completion time, seconds after the window opened
  double latency_ms;
};

// Counters read at a slice boundary of the timed window.
struct SliceMark {
  double server_cpu_s = 0.0;  // the server's user + system CPU so far
  // Host-wide CPU ticks from /proc/stat: all of them, and those the
  // hypervisor stole from this virtual machine.
  double host_ticks = 0.0;
  double steal_ticks = 0.0;
};

struct LoadResult {
  std::vector<Sample> samples;
  // Marks when the window opened and at the end of each slice (RunFor
  // only).
  std::vector<SliceMark> marks;
  int64_t attempted = 0;
  int64_t transport_errors = 0;
  int64_t error_replies = 0;
  int64_t wrong_answers = 0;
  ReplyTotals totals;

  int64_t failed() const {
    return transport_errors + error_replies + wrong_answers;
  }
  void Merge(const LoadResult& other);
};

// A spawned server plus one persistent connection per client.
class LoadSession {
 public:
  explicit LoadSession(const Workload& workload) : workload_(workload) {}

  bool Open(const std::string& server_binary, std::string* error);
  // Sends `requests` requests (split over the clients) without timing.
  LoadResult RunRequests(int64_t requests);
  // Closed loop for `seconds`: each client sends its next request as soon
  // as the previous reply arrived and was checked. The server's CPU time is
  // sampled at the ends of `slices` equal slices of the window.
  LoadResult RunFor(double seconds, int slices);
  bool Status(gyo::serve::StatusResponse* status);
  // Closes the connections and drains the server.
  bool Close(ServerExit* exit, std::string* error);

 private:
  LoadResult Run(int64_t max_requests, double seconds, int slices);
  void ClientLoop(int c, int64_t max_requests, Clock::time_point open,
                  Clock::time_point end, LoadResult* out);

  const Workload& workload_;
  ServerProcess server_;
  std::vector<gyo::serve::Client> clients_;
  std::vector<RequestSource> sources_;
  std::vector<uint64_t> next_;  // per-client request counter
};

double Percentile(std::vector<double> samples, double p);

// ---------------------------------------------------------------------------
// Traced in-process replay (trace.cc)

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct TraceInputs {
  // Mean client-observed latency of the untraced phase.
  double untraced_mean_ms = 0.0;
  // Replies of the untraced phase and the STATUS counters around it.
  ReplyTotals replies;
  gyo::serve::StatusResponse status_before;
  gyo::serve::StatusResponse status_after;
};

struct TraceOutcome {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Replays the workload in-process through the calls server.cc makes, with
// span recording alternately off and on, replays the programs serially
// through the kernels, and writes the spans to `spans_path`.
TraceOutcome RunTrace(const Workload& workload, double seconds,
                      const TraceInputs& inputs,
                      const std::string& spans_path);

}  // namespace servebench

#endif  // SERVEBENCH_SERVEBENCH_H_
