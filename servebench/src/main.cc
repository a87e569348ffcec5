// servebench_driver: one run of the gyo_serve end-to-end benchmark.
//
//   servebench_driver --workload path_reduce --seed 1 --seconds 10
//                     --trace 0 --server PATH/gyo_serve --spans-dir DIR
//
// --trace 0 measures the end-to-end metrics on the untraced closed loop.
// --trace 1 measures the per-layer metrics: a shorter untraced loop for the
// server's own counters, then the traced in-process replay (trace.cc).
// Human-readable lines go first; the last stdout line is one JSON object.
// Exits 1 on any failed request, wrong answer, or failed drain.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "servebench.h"

namespace servebench {
namespace {

// Set-up runs this many times per end-to-end run; setup_s is the median.
constexpr int kSetups = 3;
// The timed window is cut into kSlices equal slices, and the end-to-end
// timings are computed over the kKeptSlices of them with the least CPU
// steal: on a virtual machine whose physical cores are shared, bursts of
// steal move latency far more than anything the server does.
constexpr int kSlices = 20;
constexpr int kKeptSlices = 6;
// Fewer kept samples leave fewer than ten beyond p99.
constexpr size_t kMinSamples = 1000;

struct Args {
  std::string workload;
  std::string server;
  std::string spans_dir = ".";
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

int Usage() {
  std::fprintf(stderr,
               "usage: servebench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --server GYO_SERVE [--spans-dir DIR]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      a->workload = value;
    } else if (std::strcmp(flag, "--server") == 0) {
      a->server = value;
    } else if (std::strcmp(flag, "--spans-dir") == 0) {
      a->spans_dir = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a->seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->server.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  return 1;
}

// The replies of the kKeptSlices slices of the timed window in which the
// hypervisor stole the least CPU from this machine.
struct KeptSlices {
  std::vector<double> ms;
  double server_cpu_s = 0.0;
  double seconds = 0.0;
};

KeptSlices KeepLeastStolen(const LoadResult& timed, double window) {
  const double slice_s = window / kSlices;
  std::vector<std::vector<double>> slice_ms(kSlices);
  for (const Sample& s : timed.samples) {
    const int i = std::min(kSlices - 1, static_cast<int>(s.done_s / slice_s));
    slice_ms[static_cast<size_t>(i)].push_back(s.latency_ms);
  }
  std::vector<double> steal(kSlices);
  std::vector<int> order(kSlices);
  for (size_t i = 0; i < steal.size(); ++i) {
    const SliceMark& a = timed.marks[i];
    const SliceMark& b = timed.marks[i + 1];
    const double ticks = b.host_ticks - a.host_ticks;
    steal[i] = ticks > 0 ? (b.steal_ticks - a.steal_ticks) / ticks : 0.0;
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return steal[static_cast<size_t>(x)] < steal[static_cast<size_t>(y)];
  });
  KeptSlices kept;
  kept.seconds = kKeptSlices * slice_s;
  std::vector<bool> is_kept(kSlices, false);
  for (int k = 0; k < kKeptSlices; ++k) {
    const size_t i = static_cast<size_t>(order[static_cast<size_t>(k)]);
    is_kept[i] = true;
    kept.ms.insert(kept.ms.end(), slice_ms[i].begin(), slice_ms[i].end());
    kept.server_cpu_s +=
        timed.marks[i + 1].server_cpu_s - timed.marks[i].server_cpu_s;
  }
  for (size_t i = 0; i < slice_ms.size(); ++i) {
    std::printf("slice %zu: %zu completed, p50 %.3f ms, steal %.1f%%%s\n", i,
                slice_ms[i].size(), Percentile(slice_ms[i], 0.5),
                100.0 * steal[i], is_kept[i] ? ", kept" : "");
  }
  if (kept.ms.size() < kMinSamples) {
    std::fprintf(stderr,
                 "servebench: only %zu replies in the kept slices; p99 has "
                 "fewer than ten samples beyond it\n",
                 kept.ms.size());
  }
  return kept;
}

// Spawns the server, generates the workload, connects, and warms up.
bool SetUp(const Args& args, Workload* w, std::unique_ptr<LoadSession>* s,
           LoadResult* warm, std::string* error) {
  if (!MakeWorkload(args.workload, args.seed, w)) {
    *error = "unknown workload '" + args.workload + "'";
    return false;
  }
  s->reset(new LoadSession(*w));
  if (!(*s)->Open(args.server, error)) return false;
  warm->Merge((*s)->RunRequests(w->warmup_requests));
  return true;
}

int Run(const Args& args) {
  const Clock::time_point start = Clock::now();
  Workload w;
  std::unique_ptr<LoadSession> session;
  LoadResult warm;
  std::vector<double> setup_s;
  std::string error;
  const int setups = args.trace == 0 ? kSetups : 1;
  for (int i = 0; i < setups; ++i) {
    if (session != nullptr) {
      ServerExit discarded;
      if (!session->Close(&discarded, &error)) return Fail(error);
      session.reset();
    }
    const Clock::time_point t0 = i == 0 ? start : Clock::now();
    if (!SetUp(args, &w, &session, &warm, &error)) return Fail(error);
    setup_s.push_back(SecondsSince(t0));
  }
  std::printf("workload %s  seed %llu  clients %d  bases %zu  warm-up %lld\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.clients, w.bases.size(),
              static_cast<long long>(w.warmup_requests));

  gyo::serve::StatusResponse before, after;
  const bool status_before = session->Status(&before);
  const double window = args.trace == 0 ? args.seconds : args.seconds / 2;
  const LoadResult timed = session->RunFor(window, kSlices);
  const bool status_after = session->Status(&after);
  ServerExit exit;
  const bool drained = session->Close(&exit, &error);
  if (!drained) std::fprintf(stderr, "servebench: %s\n", error.c_str());
  if (!status_before || !status_after) {
    std::fprintf(stderr, "servebench: STATUS request failed\n");
  }

  std::vector<double> all_ms;
  for (const Sample& s : timed.samples) all_ms.push_back(s.latency_ms);
  LoadResult all = warm;
  all.Merge(timed);
  const double error_ratio =
      timed.attempted > 0 ? static_cast<double>(timed.failed()) /
                                static_cast<double>(timed.attempted)
                          : 0.0;
  std::printf("requests %lld in window, %zu completed; error_ratio %.6f "
              "ratio (transport %lld, error replies %lld, wrong %lld); "
              "server cpu %.3f s, max rss %.1f MiB\n",
              static_cast<long long>(timed.attempted), all_ms.size(),
              error_ratio, static_cast<long long>(timed.transport_errors),
              static_cast<long long>(timed.error_replies),
              static_cast<long long>(timed.wrong_answers), exit.cpu_seconds,
              exit.max_rss_mib);

  bool correct = drained && status_before && status_after &&
                 all.failed() == 0 && !all_ms.empty();
  std::vector<Metric> metrics;
  int64_t attempted = all.attempted;
  int64_t failed = all.failed();
  if (args.trace == 0) {
    const KeptSlices kept = KeepLeastStolen(timed, window);
    const double n = static_cast<double>(kept.ms.size());
    // p99 is printed but left out of the JSON result: on this kind of host
    // its run-to-run spread exceeds any bound a gate can use (NOTES.md).
    std::printf("p99_ms %.6f ms over %zu replies\n",
                Percentile(kept.ms, 0.99), kept.ms.size());
    metrics.push_back({"p50_ms", Percentile(kept.ms, 0.50), "ms"});
    metrics.push_back({"qps", n / kept.seconds, "1/s"});
    metrics.push_back(
        {"cpu_ms_per_query", n > 0 ? kept.server_cpu_s * 1e3 / n : 0.0, "ms"});
    metrics.push_back({"peak_rss_mb", exit.max_rss_mib, "MiB"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
  } else {
    TraceInputs in;
    in.untraced_mean_ms = Mean(all_ms);
    in.replies = timed.totals;
    in.status_before = before;
    in.status_after = after;
    const std::string spans_path = args.spans_dir + "/spans-" + w.name +
                                   "-" + std::to_string(args.seed) + ".tsv";
    const TraceOutcome trace = RunTrace(w, args.seconds / 2, in, spans_path);
    std::printf("spans written to %s\n", spans_path.c_str());
    metrics = trace.metrics;
    attempted += trace.attempted;
    failed += trace.failed;
    correct = correct && trace.failed == 0;
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) return servebench::Usage();
  return servebench::Run(args);
}
