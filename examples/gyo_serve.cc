// gyo_serve: the query service daemon. Binds a loopback TCP port, speaks
// the framed protocol of docs/protocol.md, and multiplexes every client
// connection onto one shared ExecutorPool — admission deadlines and
// per-submitter backlog bounds turn overload into typed shed responses
// instead of unbounded queueing. SIGTERM (or SIGINT) drains gracefully:
// stop accepting, finish in-flight queries, flush every response, exit 0.
//
//   gyo_serve --port 7411 --threads 4 --max-concurrent-queries 2
//             --max-queue-wait-ms 250 --max-waiting-per-submitter 8
//
// --port 0 (the default) picks an ephemeral port; the daemon prints
// "listening on HOST:PORT" either way, so scripts can scrape the port.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "exec/executor_pool.h"
#include "serve/server.h"

namespace {

gyo::serve::Server* g_server = nullptr;

void HandleSignal(int) {
  // Async-signal-safe by contract: one atomic store + one pipe write.
  if (g_server != nullptr) g_server->RequestDrain();
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--bind ADDR] [--threads N]\n"
      "          [--max-concurrent-queries N] [--max-queue-wait-ms N]\n"
      "          [--max-waiting-per-submitter N] [--plan-cache-entries N]\n"
      "          [--result-cache-mb N]\n"
      "Serve framed queries over TCP on one shared executor pool.\n"
      "  --port 0 (default) picks an ephemeral port\n"
      "  --max-queue-wait-ms     default admission deadline (0 = none)\n"
      "  --max-waiting-per-submitter  backlog bound per connection (0 = "
      "unbounded)\n"
      "  --plan-cache-entries    plan cache size (0 disables; default 128)\n"
      "  --result-cache-mb       result cache bytes (0 disables; default "
      "32)\n",
      argv0);
  return 2;
}

bool ParseInt(int argc, char** argv, int* i, long* out) {
  if (*i + 1 >= argc) return false;
  char* end = nullptr;
  *out = std::strtol(argv[++*i], &end, 10);
  return end != nullptr && *end == '\0' && *out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Keep freed query memory mapped. glibc's dynamic rule sets the mmap
  // threshold to the largest mmapped chunk freed so far and the trim
  // threshold to twice that, but a query frees many such chunks at once
  // (servebench's CC-pruned ring_join frees several MiB of 256 KiB
  // columns). So every query end trimmed each arena's free top and
  // unmapped its big chunks, and the next query faulted them back in:
  // 560-640 minor faults per ring_join query and 37-43% of the daemon's
  // CPU as system time, on a 4-vCPU x86-64 VM with glibc 2.36. Pinned at
  // the dynamic rule's own 64-bit ceilings, it is about one fault per
  // query. Allocations above 32 MiB still use mmap and are unmapped on
  // free; each arena may keep up to 64 MiB of freed memory mapped.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif

  gyo::serve::ServerOptions options;
  gyo::exec::ExecutorPool::Options pool_options;
  for (int i = 1; i < argc; ++i) {
    long value = 0;
    if (std::strcmp(argv[i], "--port") == 0 &&
        ParseInt(argc, argv, &i, &value)) {
      options.port = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
      options.bind_address = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 &&
               ParseInt(argc, argv, &i, &value) && value >= 1) {
      pool_options.threads = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--max-concurrent-queries") == 0 &&
               ParseInt(argc, argv, &i, &value) && value >= 1) {
      pool_options.max_concurrent_queries = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--max-queue-wait-ms") == 0 &&
               ParseInt(argc, argv, &i, &value)) {
      pool_options.max_queue_wait_seconds =
          static_cast<double>(value) / 1000.0;
    } else if (std::strcmp(argv[i], "--max-waiting-per-submitter") == 0 &&
               ParseInt(argc, argv, &i, &value)) {
      pool_options.max_waiting_per_submitter = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--plan-cache-entries") == 0 &&
               ParseInt(argc, argv, &i, &value)) {
      options.plan_cache_entries = static_cast<size_t>(value);
    } else if (std::strcmp(argv[i], "--result-cache-mb") == 0 &&
               ParseInt(argc, argv, &i, &value)) {
      options.result_cache_bytes = static_cast<int64_t>(value) << 20;
    } else {
      return Usage(argv[0]);
    }
  }

  // Size the process-wide pool before any query touches it; the server
  // multiplexes every connection onto this one pool.
  gyo::exec::ExecutorPool::ConfigureGlobal(pool_options);

  gyo::serve::Server server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::printf("listening on %s:%d\n", options.bind_address.c_str(),
              server.port());
  std::fflush(stdout);

  const gyo::serve::DrainReport report = server.Wait();
  std::printf(
      "drained: %llu connections open, %llu queries in flight; lifetime "
      "%llu accepted, %llu served, %llu shed (deadline %llu, backlog %llu), "
      "%llu protocol errors\n",
      static_cast<unsigned long long>(report.connections_at_drain),
      static_cast<unsigned long long>(report.queries_in_flight_at_drain),
      static_cast<unsigned long long>(report.connections_accepted),
      static_cast<unsigned long long>(report.queries_served),
      static_cast<unsigned long long>(report.queries_shed_deadline +
                                      report.queries_shed_backlog),
      static_cast<unsigned long long>(report.queries_shed_deadline),
      static_cast<unsigned long long>(report.queries_shed_backlog),
      static_cast<unsigned long long>(report.protocol_errors));
  return 0;
}
