// serve/server + serve/client end-to-end over loopback: concurrent clients
// bit-identical to direct serial execution, typed admission sheds, protocol
// fault handling (connection survives malformed frames, closes on
// unrecoverable ones), STATUS over the wire, and graceful drain. The shed
// and drain tests are deterministic by construction — a pool Admission held
// by the test occupies the only slot, so rejection and in-flight states are
// guaranteed rather than raced.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "gtest/gtest.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/parse.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"

namespace gyo {
namespace serve {
namespace {

struct Spec {
  const char* schema;
  const char* target;
  int rows;
  int domain;
};

// The two shapes the acceptance criteria call out: a path (tree) schema
// Yannakakis handles and a triangle (cyclic) one that falls back to the
// CC-pruned join.
constexpr Spec kTree{"ab,bc,cd", "ad", 300, 12};
constexpr Spec kCycle{"ab,bc,ca", "ac", 200, 10};

std::vector<Relation> MakeStates(const Spec& spec, uint64_t seed) {
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, spec.schema);
  Rng rng(seed);
  return ProjectDatabase(
      RandomUniversal(d.Universe(), spec.rows, spec.domain, rng), d);
}

// The server's kAuto strategy resolution: Yannakakis on a tree schema, the
// CC-pruned join otherwise.
Program AutoProgram(const Spec& spec) {
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, spec.schema);
  AttrSet x = ParseAttrSet(catalog, spec.target);
  std::optional<Program> p = YannakakisProgram(d, x);
  return p.has_value() ? *std::move(p) : CCPrunedProgram(d, x);
}

// What the server must be bit-identical to: the same kAuto strategy
// resolution, executed serially and directly.
Relation SerialReference(const Spec& spec, uint64_t seed) {
  return exec::Run(AutoProgram(spec), MakeStates(spec, seed),
                   exec::ExecContext());
}

QueryRequest MakeRequest(const Spec& spec, uint64_t seed) {
  QueryRequest request;
  request.schema_spec = spec.schema;
  request.target_spec = spec.target;
  request.states = MakeStates(spec, seed);
  return request;
}

exec::ExecutorPool::Options PoolOptions(int threads, int max_concurrent) {
  exec::ExecutorPool::Options options;
  options.threads = threads;
  options.max_concurrent_queries = max_concurrent;
  return options;
}

// Blocking loopback connection for the raw-bytes protocol-fault tests.
int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

ErrorReply ReadErrorFrame(int fd) {
  std::vector<uint8_t> payload;
  std::string error;
  EXPECT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
            IoStatus::kOk)
      << error;
  ErrorReply reply;
  if (payload.empty() ||
      payload[0] != static_cast<uint8_t>(FrameType::kError)) {
    ADD_FAILURE() << "expected an error frame";
    return reply;
  }
  EXPECT_TRUE(
      DecodeError(payload.data() + 1, payload.size() - 1, &reply, &error))
      << error;
  return reply;
}

TEST(ServeTest, ConcurrentClientsBitIdenticalToSerial) {
  exec::ExecutorPool pool(PoolOptions(3, 2));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 8;
  std::vector<Relation> expected;
  for (int i = 0; i < kClients; ++i) {
    const Spec& spec = (i % 2 == 0) ? kTree : kCycle;
    expected.push_back(SerialReference(spec, 100 + i));
  }

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const Spec& spec = (i % 2 == 0) ? kTree : kCycle;
      Client client;
      if (!client.Connect("127.0.0.1", server.port())) {
        failures[i] = client.io_error();
        return;
      }
      QueryRequest request = MakeRequest(spec, 100 + i);
      request.want_plan = true;
      QueryResponse response;
      if (client.Query(request, &response) != Client::Outcome::kOk) {
        failures[i] = client.io_error() + client.server_error().message;
        return;
      }
      if (!response.result.IdenticalTo(expected[i])) {
        failures[i] = "result not bit-identical to serial execution";
        return;
      }
      if (response.stats.result_rows != expected[i].NumRows()) {
        failures[i] = "stats disagree with the result";
        return;
      }
      const Strategy want =
          (i % 2 == 0) ? Strategy::kYannakakis : Strategy::kCcPruned;
      if (!response.has_plan || response.plan.strategy != want) {
        failures[i] = "kAuto resolved to the wrong strategy";
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(failures[i].empty()) << "client " << i << ": " << failures[i];
  }

  Client status_client;
  ASSERT_TRUE(status_client.Connect("127.0.0.1", server.port()));
  StatusResponse status;
  ASSERT_EQ(status_client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.queries_served, static_cast<uint64_t>(kClients));
  EXPECT_EQ(status.connections_accepted,
            static_cast<uint64_t>(kClients) + 1);
  EXPECT_EQ(status.protocol_errors, 0u);
  EXPECT_FALSE(status.draining);
  EXPECT_EQ(status.pool.threads, 3);
  EXPECT_EQ(status.pool.max_concurrent_queries, 2);

  server.RequestDrain();
  const DrainReport report = server.Wait();
  EXPECT_EQ(report.queries_served, static_cast<uint64_t>(kClients));
  EXPECT_EQ(report.protocol_errors, 0u);
}

TEST(ServeTest, RepeatQueryIsServedFromCacheBitIdentically) {
  exec::ExecutorPool pool(PoolOptions(2, 2));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const Relation expected = SerialReference(kTree, 500);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  QueryResponse first, second;
  ASSERT_EQ(client.Query(MakeRequest(kTree, 500), &first),
            Client::Outcome::kOk);
  ASSERT_EQ(client.Query(MakeRequest(kTree, 500), &second),
            Client::Outcome::kOk);

  // The cached reply replays the first answer — and both must be
  // bit-identical to direct serial execution, stats included.
  EXPECT_TRUE(first.result.IdenticalTo(expected));
  EXPECT_TRUE(second.result.IdenticalTo(first.result));
  EXPECT_EQ(second.stats.result_rows, first.stats.result_rows);
  EXPECT_EQ(second.stats.max_intermediate_rows,
            first.stats.max_intermediate_rows);
  EXPECT_EQ(second.stats.total_rows_produced, first.stats.total_rows_produced);
  EXPECT_EQ(first.query_stats.plan_cache_hits, 0);
  EXPECT_EQ(first.query_stats.state_cache_hits, 0);
  EXPECT_EQ(second.query_stats.plan_cache_hits, 1);
  EXPECT_EQ(second.query_stats.state_cache_hits, 1);
  EXPECT_EQ(second.query_stats.tasks, 0);  // no execution happened

  StatusResponse status;
  ASSERT_EQ(client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.queries_served, 2u);
  EXPECT_EQ(status.plan_cache_hits, 1u);
  EXPECT_EQ(status.plan_cache_misses, 1u);
  EXPECT_EQ(status.result_cache_hits, 1u);
  EXPECT_EQ(status.result_cache_misses, 1u);
  // The lifetime totals fold in both replies, the executed one and the
  // replay (which carries the two cache verdicts and no work).
  EXPECT_EQ(status.totals.tasks, first.query_stats.tasks);
  EXPECT_EQ(status.totals.peak_state_bytes,
            first.query_stats.peak_state_bytes);
  EXPECT_EQ(status.totals.plan_cache_hits, 1);
  EXPECT_EQ(status.totals.state_cache_hits, 1);
}

// An executed query frees each consumed state as its last reader finishes:
// the CC-pruned join's chain and the Yannakakis reducer both retire, the
// live-state peak never exceeds the same program run without retirement,
// and the answer is unchanged.
TEST(ServeTest, ExecutedQueriesRetireConsumedStates) {
  exec::ExecutorPool pool(PoolOptions(2, 2));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  for (const auto& [spec, want] :
       {std::make_pair(kCycle, Strategy::kCcPruned),
        std::make_pair(kTree, Strategy::kYannakakis)}) {
    SCOPED_TRACE(spec.schema);
    exec::QueryStats unretired;
    exec::ExecContext ctx;
    ctx.query_stats = &unretired;
    exec::Execute(AutoProgram(spec), MakeStates(spec, 600), ctx);
    ASSERT_EQ(unretired.retired_states, 0);

    QueryRequest request = MakeRequest(spec, 600);
    request.want_plan = true;
    QueryResponse response;
    ASSERT_EQ(client.Query(request, &response), Client::Outcome::kOk);
    ASSERT_TRUE(response.has_plan);
    EXPECT_EQ(response.plan.strategy, want);
    EXPECT_GT(response.query_stats.tasks, 0);
    EXPECT_GT(response.query_stats.retired_states, 0);
    EXPECT_LE(response.query_stats.peak_state_bytes,
              unretired.peak_state_bytes);
    EXPECT_TRUE(response.result.IdenticalTo(SerialReference(spec, 600)));
  }
}

// The statement-level fork rule on the serve path: a star query whose
// relations sit under the statement grain runs inline on its admitted
// thread, one at the grain runs as a task graph (its plan is not a chain),
// and both answer exactly what exec::Run answers serially.
TEST(ServeTest, QueriesBelowAndAboveTheStatementGrainMatchRun) {
  exec::ExecutorPool pool(PoolOptions(2, 2));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  const int grain = static_cast<int>(exec::kMinStatementForkRows);
  for (int rows : {grain / 32, grain}) {
    SCOPED_TRACE(rows);
    // Key-like values: every relation holds exactly `rows` rows.
    const Spec spec{"ab,ac,ad,ae", "be", rows, 1 << 20};
    QueryRequest request = MakeRequest(spec, 800);
    request.want_plan = true;
    QueryResponse response;
    ASSERT_EQ(client.Query(request, &response), Client::Outcome::kOk);
    ASSERT_TRUE(response.has_plan);
    EXPECT_EQ(response.plan.strategy, Strategy::kYannakakis);
    EXPECT_LT(response.plan.critical_path, response.plan.num_statements);
    EXPECT_EQ(exec::ForkStatementGraph(pool.threads(),
                                       response.plan.num_statements,
                                       response.plan.critical_path, rows, 0),
              rows == grain);
    EXPECT_EQ(response.query_stats.tasks, response.plan.num_statements);
    EXPECT_TRUE(response.result.IdenticalTo(SerialReference(spec, 800)));
  }
}

// A result-cache replay executes nothing, so it retires nothing; the STATUS
// totals carry exactly the executed replies' retirements.
TEST(ServeTest, ResultCacheReplayRetiresNothing) {
  exec::ExecutorPool pool(PoolOptions(2, 2));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  int64_t executed_retired = 0;
  for (const Spec& spec : {kCycle, kTree}) {
    SCOPED_TRACE(spec.schema);
    QueryResponse executed, replayed;
    ASSERT_EQ(client.Query(MakeRequest(spec, 700), &executed),
              Client::Outcome::kOk);
    ASSERT_EQ(client.Query(MakeRequest(spec, 700), &replayed),
              Client::Outcome::kOk);
    EXPECT_EQ(executed.query_stats.state_cache_hits, 0);
    EXPECT_GT(executed.query_stats.retired_states, 0);
    EXPECT_EQ(replayed.query_stats.state_cache_hits, 1);
    EXPECT_EQ(replayed.query_stats.tasks, 0);
    EXPECT_EQ(replayed.query_stats.retired_states, 0);
    EXPECT_EQ(replayed.query_stats.peak_state_bytes, 0);
    EXPECT_TRUE(replayed.result.IdenticalTo(executed.result));
    executed_retired += executed.query_stats.retired_states;
  }

  StatusResponse status;
  ASSERT_EQ(client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.result_cache_hits, 2u);
  EXPECT_EQ(status.totals.retired_states, executed_retired);
}

TEST(ServeTest, DisabledCachesExecuteEveryQuery) {
  exec::ExecutorPool pool(PoolOptions(2, 2));
  ServerOptions options;
  options.pool = &pool;
  options.plan_cache_entries = 0;
  options.result_cache_bytes = 0;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  QueryResponse first, second;
  ASSERT_EQ(client.Query(MakeRequest(kTree, 500), &first),
            Client::Outcome::kOk);
  ASSERT_EQ(client.Query(MakeRequest(kTree, 500), &second),
            Client::Outcome::kOk);
  EXPECT_TRUE(second.result.IdenticalTo(first.result));
  EXPECT_EQ(second.query_stats.plan_cache_hits, 0);
  EXPECT_EQ(second.query_stats.state_cache_hits, 0);
  EXPECT_GT(second.query_stats.tasks, 0);

  StatusResponse status;
  ASSERT_EQ(client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.plan_cache_hits, 0u);
  EXPECT_EQ(status.plan_cache_misses, 0u);
  EXPECT_EQ(status.result_cache_hits, 0u);
  EXPECT_EQ(status.result_cache_misses, 0u);
}

TEST(ServeTest, DeadlineShedIsATypedReplyAndTheConnectionSurvives) {
  exec::ExecutorPool pool(PoolOptions(2, 1));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Occupy the only slot so the served query must queue.
  exec::ExecutorPool::AdmitResult holder = pool.TryAdmit(99);
  ASSERT_EQ(holder.status, exec::ExecutorPool::AdmitStatus::kAdmitted);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  QueryRequest request = MakeRequest(kTree, 1);
  request.deadline_ms = 20;
  QueryResponse response;
  ASSERT_EQ(client.Query(request, &response), Client::Outcome::kServerError);
  EXPECT_EQ(client.server_error().code, ErrorCode::kDeadlineExceeded);

  // A shed is not a connection fault: the same connection serves the same
  // query once the slot frees up.
  holder.admission.reset();
  ASSERT_EQ(client.Query(request, &response), Client::Outcome::kOk);
  EXPECT_TRUE(response.result.IdenticalTo(SerialReference(kTree, 1)));

  StatusResponse status;
  ASSERT_EQ(client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.queries_shed_deadline, 1u);
  EXPECT_EQ(status.queries_served, 1u);
  EXPECT_EQ(status.protocol_errors, 0u);
}

TEST(ServeTest, BacklogShedIsATypedReply) {
  exec::ExecutorPool::Options pool_options = PoolOptions(2, 1);
  pool_options.max_waiting_per_submitter = 1;
  exec::ExecutorPool pool(pool_options);
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  exec::ExecutorPool::AdmitResult holder = pool.TryAdmit(99);
  ASSERT_EQ(holder.status, exec::ExecutorPool::AdmitStatus::kAdmitted);

  // First query of submitter 7 fills its backlog quota of one...
  Client waiter;
  ASSERT_TRUE(waiter.Connect("127.0.0.1", server.port()));
  QueryRequest request = MakeRequest(kTree, 2);
  request.submitter = 7;
  std::thread waiting_query([&] {
    QueryResponse response;
    EXPECT_EQ(waiter.Query(request, &response), Client::Outcome::kOk);
  });
  while (pool.waiting_queries(7) != 1) std::this_thread::yield();

  // ...so a second one of the same submitter is rejected in O(1).
  Client rejected;
  ASSERT_TRUE(rejected.Connect("127.0.0.1", server.port()));
  QueryResponse response;
  ASSERT_EQ(rejected.Query(request, &response),
            Client::Outcome::kServerError);
  EXPECT_EQ(rejected.server_error().code, ErrorCode::kBacklogFull);

  holder.admission.reset();
  waiting_query.join();

  StatusResponse status;
  ASSERT_EQ(rejected.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.queries_shed_backlog, 1u);
  EXPECT_EQ(status.queries_served, 1u);
}

TEST(ServeTest, MalformedFrameGetsTypedErrorAndConnectionSurvives) {
  exec::ExecutorPool pool(PoolOptions(2, 1));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const int fd = Dial(server.port());

  // A query frame whose body is garbage decodes to a typed kMalformed.
  Writer w;
  w.Begin(FrameType::kQueryRequest);
  w.U8(0xff);
  w.U8(0xff);
  ASSERT_TRUE(WriteFrame(fd, w.Finish(), &error)) << error;
  EXPECT_EQ(ReadErrorFrame(fd).code, ErrorCode::kMalformed);

  // An unknown frame type likewise.
  w.Begin(static_cast<FrameType>(9));
  ASSERT_TRUE(WriteFrame(fd, w.Finish(), &error)) << error;
  EXPECT_EQ(ReadErrorFrame(fd).code, ErrorCode::kMalformed);

  // The frame boundary was never lost, so the connection still serves a
  // well-formed query afterwards.
  ASSERT_TRUE(WriteFrame(fd, EncodeQueryRequest(MakeRequest(kTree, 3)),
                         &error))
      << error;
  std::vector<uint8_t> payload;
  ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
            IoStatus::kOk)
      << error;
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(payload[0], static_cast<uint8_t>(FrameType::kQueryResponse));

  StatusResponse status;
  Client status_client;
  ASSERT_TRUE(status_client.Connect("127.0.0.1", server.port()));
  ASSERT_EQ(status_client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.protocol_errors, 2u);
  EXPECT_EQ(status.queries_served, 1u);
  ::close(fd);
}

TEST(ServeTest, TargetOutsideSchemaUniverseIsMalformedNotFatal) {
  // Regression: this exact frame used to abort the whole daemon via a
  // GYO_CHECK in program construction — a single-packet kill.
  exec::ExecutorPool pool(PoolOptions(2, 1));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  QueryRequest request = MakeRequest(kTree, 5);
  request.target_spec = "az";  // 'z' is in no relation of the schema
  QueryResponse response;
  ASSERT_EQ(client.Query(request, &response), Client::Outcome::kServerError);
  EXPECT_EQ(client.server_error().code, ErrorCode::kMalformed);

  // The daemon survived and the frame boundary held: the corrected query
  // succeeds on the same connection.
  request.target_spec = kTree.target;
  ASSERT_EQ(client.Query(request, &response), Client::Outcome::kOk);
  EXPECT_TRUE(response.result.IdenticalTo(SerialReference(kTree, 5)));

  StatusResponse status;
  ASSERT_EQ(client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.protocol_errors, 1u);
  EXPECT_EQ(status.queries_served, 1u);
}

TEST(ServeTest, OversizedResultIsATypedErrorNotACorruptFrame) {
  exec::ExecutorPool pool(PoolOptions(2, 1));
  ServerOptions options;
  options.pool = &pool;
  options.max_frame_bytes = 4096;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // A small request whose join result far exceeds the frame bound:
  // ab = {0..N-1} x {0} and bc = {0} x {0..N-1} join to N^2 rows over ac.
  constexpr int kN = 100;
  Catalog catalog;
  DatabaseSchema schema = ParseSchema(catalog, "ab,bc");
  QueryRequest request;
  request.schema_spec = "ab,bc";
  request.target_spec = "ac";
  request.states.emplace_back(schema.Relation(0));
  request.states.emplace_back(schema.Relation(1));
  for (int i = 0; i < kN; ++i) {
    request.states[0].AddRow({i, 0});
    request.states[1].AddRow({0, i});
  }
  request.states[0].MarkCanonical();
  request.states[1].MarkCanonical();

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  QueryResponse response;
  ASSERT_EQ(client.Query(request, &response), Client::Outcome::kServerError);
  EXPECT_EQ(client.server_error().code, ErrorCode::kInternal);

  // The reply was a clean typed frame on an intact stream: the connection
  // still answers requests that fit.
  StatusResponse status;
  ASSERT_EQ(client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.queries_served, 0u);
}

TEST(ServeTest, PipelinedFloodIsBackpressuredNotBufferedWithoutBound) {
  exec::ExecutorPool pool(PoolOptions(2, 1));
  ServerOptions options;
  options.pool = &pool;
  // A tiny bound so a handful of queued status replies trips backpressure.
  options.max_queued_response_bytes = 256;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Pipeline many STATUS requests without reading a single reply. The
  // server parses only until its response queue holds the bound, parks the
  // rest, and stops reading the socket — then serves every request as the
  // queue drains. Nothing is dropped and nothing buffers without bound.
  const int fd = Dial(server.port());
  const std::vector<uint8_t> status_frame = EncodeStatusRequest();
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(WriteFrame(fd, status_frame, &error)) << error;
  }
  for (int i = 0; i < kRequests; ++i) {
    std::vector<uint8_t> payload;
    ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
              IoStatus::kOk)
        << "reply " << i << ": " << error;
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload[0], static_cast<uint8_t>(FrameType::kStatusResponse));
  }
  ::close(fd);
}

TEST(ServeTest, PipelinedQueriesAreAnsweredInOrderBitIdenticalToSerial) {
  exec::ExecutorPool pool(PoolOptions(2, 1));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Two QUERY frames in one write: the second is framed out of the read
  // buffer only after the first query's completion, and each is decoded in
  // place past its type byte.
  const Spec specs[] = {kTree, kCycle};
  const uint64_t seeds[] = {31, 32};
  std::vector<uint8_t> both;
  for (int i = 0; i < 2; ++i) {
    const std::vector<uint8_t> frame =
        EncodeQueryRequest(MakeRequest(specs[i], seeds[i]));
    both.insert(both.end(), frame.begin(), frame.end());
  }
  const int fd = Dial(server.port());
  ASSERT_TRUE(WriteFrame(fd, both, &error)) << error;

  for (int i = 0; i < 2; ++i) {
    std::vector<uint8_t> payload;
    ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
              IoStatus::kOk)
        << "reply " << i << ": " << error;
    ASSERT_FALSE(payload.empty());
    ASSERT_EQ(payload[0], static_cast<uint8_t>(FrameType::kQueryResponse));
    Catalog catalog;
    ParseSchema(catalog, specs[i].schema);
    const AttrSet target = ParseAttrSet(catalog, specs[i].target);
    QueryResponse response;
    ASSERT_TRUE(DecodeQueryResponse(payload.data() + 1, payload.size() - 1,
                                    target, &response, &error))
        << error;
    EXPECT_TRUE(
        response.result.IdenticalTo(SerialReference(specs[i], seeds[i])))
        << "reply " << i;
  }
  ::close(fd);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  StatusResponse status;
  ASSERT_EQ(client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.queries_served, 2u);
  EXPECT_EQ(status.protocol_errors, 0u);
}

TEST(ServeTest, UnrecoverableFramesCloseTheConnectionCleanly) {
  exec::ExecutorPool pool(PoolOptions(2, 1));
  ServerOptions options;
  options.pool = &pool;
  options.max_frame_bytes = 4096;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // An oversized length prefix: typed kFrameTooLarge, then close — the
  // announced bytes were never read, so the stream cannot resync.
  {
    const int fd = Dial(server.port());
    const uint8_t header[4] = {0, 0, 16, 0};  // announces 1 MiB
    ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL), 4);
    EXPECT_EQ(ReadErrorFrame(fd).code, ErrorCode::kFrameTooLarge);
    std::vector<uint8_t> payload;
    EXPECT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
              IoStatus::kEof);
    ::close(fd);
  }
  // A zero-length frame: same treatment.
  {
    const int fd = Dial(server.port());
    const uint8_t header[4] = {0, 0, 0, 0};
    ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL), 4);
    EXPECT_EQ(ReadErrorFrame(fd).code, ErrorCode::kMalformed);
    std::vector<uint8_t> payload;
    EXPECT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &payload, &error),
              IoStatus::kEof);
    ::close(fd);
  }
  // The server outlived both faults.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  StatusResponse status;
  ASSERT_EQ(client.Status(&status), Client::Outcome::kOk);
  EXPECT_EQ(status.protocol_errors, 2u);
}

TEST(ServeTest, DrainFinishesInFlightQueriesAndFlushesResponses) {
  exec::ExecutorPool pool(PoolOptions(2, 1));
  ServerOptions options;
  options.pool = &pool;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Park a query in the admission queue (slot held), then drain: the drain
  // must wait for the query, deliver its response, and only then exit.
  exec::ExecutorPool::AdmitResult holder = pool.TryAdmit(99);
  ASSERT_EQ(holder.status, exec::ExecutorPool::AdmitStatus::kAdmitted);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  Client::Outcome outcome = Client::Outcome::kIoError;
  QueryResponse response;
  QueryRequest request = MakeRequest(kCycle, 4);
  std::thread in_flight([&] { outcome = client.Query(request, &response); });
  // Connection ids start at 1, so the first connection waits as submitter 1.
  while (pool.waiting_queries(1) != 1) std::this_thread::yield();

  server.RequestDrain();
  holder.admission.reset();
  in_flight.join();
  ASSERT_EQ(outcome, Client::Outcome::kOk);
  EXPECT_TRUE(response.result.IdenticalTo(SerialReference(kCycle, 4)));

  const DrainReport report = server.Wait();
  EXPECT_EQ(report.queries_in_flight_at_drain, 1u);
  EXPECT_EQ(report.connections_at_drain, 1u);
  EXPECT_EQ(report.queries_served, 1u);
  EXPECT_EQ(report.protocol_errors, 0u);

  // New connections are refused once the listener is down.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()));
}

}  // namespace
}  // namespace serve
}  // namespace gyo
