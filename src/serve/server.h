#ifndef GYO_SERVE_SERVER_H_
#define GYO_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "exec/executor_pool.h"
#include "serve/frame.h"

namespace gyo {
namespace serve {

/// gyo_serve core: a single-process TCP daemon that multiplexes many client
/// connections onto one shared ExecutorPool. One IO thread owns the sockets
/// — a poll() loop over the listen fd, a self-wake pipe, and every
/// connection — and never blocks on a query: each admitted query runs on its
/// own worker thread (which participates in the pool's execution exactly
/// like a direct exec::Run caller), posting its response frame back through
/// the wake pipe. Each connection is one admission submitter, so the pool's
/// round-robin fairness and per-submitter backlog bounds apply per client.
///
/// Overload never hangs and never kills the process: admission sheds with
/// typed kDeadlineExceeded / kBacklogFull error frames, malformed input gets
/// kMalformed (connection survives — the frame boundary is intact), and an
/// oversized length prefix gets kFrameTooLarge followed by a close (the
/// stream cannot be resynchronized).
///
/// Results are bit-identical to a direct serial exec::Run of the same
/// program — the property the serve end-to-end tests pin with
/// Relation::IdenticalTo across concurrent clients. A request's
/// deterministic bit no longer changes its result; it only decides whether
/// the result cache is consulted.
struct ServerOptions {
  /// Address to bind; the daemon is loopback-only by default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  int port = 0;
  /// Per-frame payload bound, applied in both directions: a client
  /// announcing a larger frame is rejected (kFrameTooLarge), and a query
  /// whose encoded response would exceed it is answered with a typed
  /// kInternal error instead of an unsendable frame.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Bound on encoded response bytes queued on one connection. A client
  /// that pipelines requests without reading replies is paused — its socket
  /// stops being read and no further frames are parsed — once its queue
  /// holds this much, resuming as the queue flushes: backpressure instead
  /// of unbounded buffering. One frame may overshoot the bound, so a single
  /// response of any admissible size always fits.
  size_t max_queued_response_bytes = 8u << 20;
  /// Pool to execute on; nullptr = ExecutorPool::Global(). Admission
  /// deadlines and per-submitter backlog bounds are the pool's
  /// (Options::max_queue_wait_seconds / max_waiting_per_submitter); a
  /// request's deadline_ms overrides the wait bound per query.
  exec::ExecutorPool* pool = nullptr;
  /// Plan-cache entries (canonical hypergraph fingerprint -> memoized
  /// program + dataflow analysis); 0 disables the plan cache. Cached plans
  /// are remapped into the request's attribute space, so replies stay
  /// byte-identical to first-time planning.
  size_t plan_cache_entries = 128;
  /// Result-cache byte bound (full-answer memoization, deterministic
  /// queries only); 0 disables the result cache. A result hit replays the
  /// original response's result and stats bit-identically, without
  /// admission or execution.
  int64_t result_cache_bytes = 32ll << 20;
};

/// What a graceful drain observed — printed by gyo_serve on SIGTERM.
struct DrainReport {
  /// Connections still open when the drain began.
  uint64_t connections_at_drain = 0;
  /// Queries mid-execution when the drain began; all were finished and
  /// their responses flushed before exit.
  uint64_t queries_in_flight_at_drain = 0;
  /// Lifetime totals.
  uint64_t connections_accepted = 0;
  uint64_t queries_served = 0;
  uint64_t queries_shed_deadline = 0;
  uint64_t queries_shed_backlog = 0;
  uint64_t protocol_errors = 0;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);

  /// Joins the IO thread if still running (an implicit RequestDrain()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the IO thread. False + `error` on failure
  /// (port in use, ...). Call at most once.
  bool Start(std::string* error);

  /// The bound port (after Start) — the ephemeral port when options.port
  /// was 0.
  int port() const { return port_; }

  /// Begins a graceful drain: stop accepting, finish in-flight queries,
  /// flush and close every connection, then exit the IO loop. Safe to call
  /// from a signal handler (one atomic store + one pipe write) and
  /// idempotent.
  void RequestDrain();

  /// Blocks until the IO thread exits (i.e. a drain completed) and returns
  /// what the drain saw. Call once, after Start succeeded.
  DrainReport Wait();

  /// Point-in-time counters + pool snapshot — the same struct the STATUS
  /// frame carries.
  StatusResponse Status() const;

 private:
  class Impl;
  friend class Impl;

  ServerOptions options_;
  int port_ = 0;
  bool started_ = false;
  bool waited_ = false;
  Impl* impl_ = nullptr;
};

}  // namespace serve
}  // namespace gyo

#endif  // GYO_SERVE_SERVER_H_
