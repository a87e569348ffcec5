// The closed-loop load driver: one thread and one persistent connection per
// client, each sending its next request only after the previous reply came
// back and was checked against the reference answer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "servebench.h"

namespace servebench {

using gyo::serve::Client;

namespace {

// Diagnostics for the first few failures of a run; the rest are counted.
constexpr int64_t kReportedFailures = 5;

// The aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal ...
void ReadHostTicks(SliceMark* mark) {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double ticks = 0.0;
  for (int field = 1; field <= 8 && (in >> ticks); ++field) {
    mark->host_ticks += ticks;
    if (field == 8) mark->steal_ticks = ticks;
  }
}

}  // namespace

void ReplyTotals::Add(const gyo::serve::QueryResponse& response) {
  ++replies;
  max_intermediate_rows += response.stats.max_intermediate_rows;
  const gyo::exec::QueryStats& q = response.query_stats;
  if (q.state_cache_hits != 0) return;  // a result-cache replay
  ++executed;
  queue_wait_seconds += q.queue_wait_seconds;
  run_seconds += q.run_time_seconds;
  tasks += q.tasks;
  morsels += q.morsels;
  peak_state_bytes += q.peak_state_bytes;
  tasks_stolen += q.tasks_stolen;
  affinity_hits += q.affinity_hits;
  affinity_misses += q.affinity_misses;
  queue_depth_at_admit += q.queue_depth_at_admit;
  pruned_rows += q.probe_rows_pruned + q.sip_rows_pruned + q.zone_map_skips;
}

void ReplyTotals::Merge(const ReplyTotals& o) {
  replies += o.replies;
  executed += o.executed;
  queue_wait_seconds += o.queue_wait_seconds;
  run_seconds += o.run_seconds;
  tasks += o.tasks;
  morsels += o.morsels;
  peak_state_bytes += o.peak_state_bytes;
  tasks_stolen += o.tasks_stolen;
  affinity_hits += o.affinity_hits;
  affinity_misses += o.affinity_misses;
  queue_depth_at_admit += o.queue_depth_at_admit;
  pruned_rows += o.pruned_rows;
  max_intermediate_rows += o.max_intermediate_rows;
}

void LoadResult::Merge(const LoadResult& o) {
  samples.insert(samples.end(), o.samples.begin(), o.samples.end());
  attempted += o.attempted;
  transport_errors += o.transport_errors;
  error_replies += o.error_replies;
  wrong_answers += o.wrong_answers;
  totals.Merge(o.totals);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double index = p * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(std::lround(index))];
}

bool LoadSession::Open(const std::string& server_binary, std::string* error) {
  if (!server_.Start(server_binary, error)) return false;
  const int n = workload_.clients;
  clients_.resize(static_cast<size_t>(n));
  sources_.reserve(static_cast<size_t>(n));
  next_.assign(static_cast<size_t>(n), 0);
  for (Client& client : clients_) {
    if (!client.Connect("127.0.0.1", server_.port())) {
      *error = "connect: " + client.io_error();
      return false;
    }
    sources_.emplace_back(workload_);
  }
  return true;
}

void LoadSession::ClientLoop(int c, int64_t max_requests,
                             Clock::time_point open, Clock::time_point end,
                             LoadResult* out) {
  Client& client = clients_[static_cast<size_t>(c)];
  RequestSource& source = sources_[static_cast<size_t>(c)];
  const uint64_t stride = static_cast<uint64_t>(workload_.clients);
  for (int64_t n = 0; n < max_requests && Clock::now() < end; ++n) {
    const uint64_t id = next_[static_cast<size_t>(c)]++ * stride +
                        static_cast<uint64_t>(c);
    const Base& base = workload_.BaseOf(id);
    const gyo::serve::QueryRequest& request = source.For(id);
    gyo::serve::QueryResponse response;
    const Clock::time_point start = Clock::now();
    const Client::Outcome outcome = client.Query(request, &response);
    const Clock::time_point done = Clock::now();
    ++out->attempted;
    const char* failure = nullptr;
    if (outcome == Client::Outcome::kIoError) {
      ++out->transport_errors;
      failure = client.io_error().c_str();
    } else if (outcome == Client::Outcome::kServerError) {
      ++out->error_replies;
      failure = client.server_error().message.c_str();
    } else if (!MatchesReference(response.result, base)) {
      ++out->wrong_answers;
      failure = "reply differs from the reference answer";
    }
    if (failure != nullptr) {
      if (out->failed() <= kReportedFailures) {
        std::fprintf(stderr, "servebench: request %llu (%s) failed: %s\n",
                     static_cast<unsigned long long>(id),
                     workload_.name.c_str(), failure);
      }
      if (!client.connected() &&
          !client.Connect("127.0.0.1", server_.port())) {
        return;
      }
      continue;
    }
    if (done <= end) {
      out->samples.push_back(Sample{
          std::chrono::duration<double>(done - open).count(),
          std::chrono::duration<double, std::milli>(done - start).count()});
      out->totals.Add(response);
    }
  }
}

LoadResult LoadSession::Run(int64_t max_requests, double seconds,
                            int slices) {
  const int n = workload_.clients;
  const Clock::time_point open = Clock::now();
  auto after = [open](double s) {
    return open + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
  };
  const Clock::time_point end =
      seconds > 0 ? after(seconds) : Clock::time_point::max();
  LoadResult result;
  std::vector<LoadResult> per_client(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    // Split a request budget evenly; the first clients take the remainder.
    const int64_t share = max_requests / n + (c < max_requests % n ? 1 : 0);
    threads.emplace_back([this, c, share, open, end, &per_client] {
      ClientLoop(c, share, open, end, &per_client[static_cast<size_t>(c)]);
    });
  }
  for (int i = 0; i <= slices && slices > 0; ++i) {
    std::this_thread::sleep_until(after(seconds * i / slices));
    SliceMark mark;
    mark.server_cpu_s = server_.CpuSeconds();
    ReadHostTicks(&mark);
    result.marks.push_back(mark);
  }
  for (std::thread& t : threads) t.join();
  for (const LoadResult& r : per_client) result.Merge(r);
  return result;
}

LoadResult LoadSession::RunRequests(int64_t requests) {
  return Run(requests, 0.0, 0);
}

LoadResult LoadSession::RunFor(double seconds, int slices) {
  return Run(INT64_MAX, seconds, slices);
}

bool LoadSession::Status(gyo::serve::StatusResponse* status) {
  return !clients_.empty() &&
         clients_[0].Status(status) == Client::Outcome::kOk;
}

bool LoadSession::Close(ServerExit* exit, std::string* error) {
  clients_.clear();  // close before the drain so the server exits promptly
  return server_.Stop(exit, error);
}

}  // namespace servebench
