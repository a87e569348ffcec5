// gyo_client: command-line client for a gyo_serve daemon. Generates a
// random UR database for a schema locally, ships it with a query over the
// framed protocol, and prints the answer — or asks the server for STATUS.
//
//   gyo_client --port 7411 "ab,bc,cd" "ad" --rows 2000 --domain 50
//   gyo_client --port 7411 --status
//
// Typed server errors (admission sheds, malformed input, draining) print as
// "server error: CODE: message" and exit 3, transport failures exit 1 —
// scripts can tell overload from breakage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec_flags.h"
#include "rel/universal.h"
#include "schema/catalog.h"
#include "schema/parse.h"
#include "serve/client.h"
#include "util/rng.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] --port N --status\n"
      "       %s [--host H] --port N SCHEMA TARGET [options]\n"
      "Query a gyo_serve daemon over a random UR database.\n"
      "  --rows N        universal relation rows (default 1000)\n"
      "  --domain N      attribute domain size (default 30)\n"
      "  --seed N        RNG seed (default 1)\n"
      "  --strategy S    auto | full_join | cc_pruned | yannakakis\n"
      "                  cc_pruned and cyclic auto: exact on UR states only\n"
      "  --deadline-ms N admission deadline (0 = server default)\n"
      "  --plan          print plan diagnostics\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  bool status_only = false;
  bool want_plan = false;
  int rows = 1000, domain = 30;
  long seed = 1, deadline_ms = 0;
  gyo::serve::Strategy strategy = gyo::serve::Strategy::kAuto;
  std::string schema_spec, target_spec;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--status") == 0) {
      status_only = true;
    } else if (std::strcmp(argv[i], "--plan") == 0) {
      want_plan = true;
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--domain") == 0 && i + 1 < argc) {
      domain = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--strategy") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "auto") == 0) {
        strategy = gyo::serve::Strategy::kAuto;
      } else if (std::strcmp(name, "full_join") == 0) {
        strategy = gyo::serve::Strategy::kFullJoin;
      } else if (std::strcmp(name, "cc_pruned") == 0) {
        strategy = gyo::serve::Strategy::kCcPruned;
      } else if (std::strcmp(name, "yannakakis") == 0) {
        strategy = gyo::serve::Strategy::kYannakakis;
      } else {
        return Usage(argv[0]);
      }
    } else if (argv[i][0] != '-' && schema_spec.empty()) {
      schema_spec = argv[i];
    } else if (argv[i][0] != '-' && target_spec.empty()) {
      target_spec = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (port <= 0 || (!status_only && (schema_spec.empty() ||
                                     target_spec.empty()))) {
    return Usage(argv[0]);
  }

  gyo::serve::Client client;
  if (!client.Connect(host, port)) {
    std::fprintf(stderr, "error: %s\n", client.io_error().c_str());
    return 1;
  }

  if (status_only) {
    gyo::serve::StatusResponse status;
    if (client.Status(&status) != gyo::serve::Client::Outcome::kOk) {
      std::fprintf(stderr, "error: %s\n", client.io_error().c_str());
      return 1;
    }
    std::printf(
        "pool: %d threads, %d max concurrent, %d running, %d waiting\n",
        status.pool.threads, status.pool.max_concurrent_queries,
        status.pool.running, status.pool.waiting);
    for (const auto& s : status.pool.submitters) {
      std::printf("  submitter %llu: %d running, %d queued\n",
                  static_cast<unsigned long long>(s.id), s.running, s.waiting);
    }
    std::printf(
        "server: %llu connections accepted, %llu active, %llu served, "
        "%llu shed (deadline %llu, backlog %llu), %llu protocol errors%s\n",
        static_cast<unsigned long long>(status.connections_accepted),
        static_cast<unsigned long long>(status.connections_active),
        static_cast<unsigned long long>(status.queries_served),
        static_cast<unsigned long long>(status.queries_shed_deadline +
                                        status.queries_shed_backlog),
        static_cast<unsigned long long>(status.queries_shed_deadline),
        static_cast<unsigned long long>(status.queries_shed_backlog),
        static_cast<unsigned long long>(status.protocol_errors),
        status.draining ? " (draining)" : "");
    std::printf(
        "caches: plan %llu hits / %llu misses, result %llu hits / %llu "
        "misses\n",
        static_cast<unsigned long long>(status.plan_cache_hits),
        static_cast<unsigned long long>(status.plan_cache_misses),
        static_cast<unsigned long long>(status.result_cache_hits),
        static_cast<unsigned long long>(status.result_cache_misses));
    std::printf("totals:\n");
    gyo_examples::PrintCounters(status.totals, "  ");
    return 0;
  }

  // Build the UR database locally: project a random universal relation onto
  // the schema — the substrate every paper experiment runs on.
  gyo::Catalog catalog;
  gyo::DatabaseSchema schema;
  gyo::AttrSet target;
  std::string parse_error;
  if (!gyo::serve::SafeParseSchema(catalog, schema_spec, &schema,
                                   &parse_error) ||
      !gyo::serve::SafeParseAttrSet(catalog, target_spec, &target,
                                    &parse_error)) {
    std::fprintf(stderr, "error: %s\n", parse_error.c_str());
    return 2;
  }
  gyo::Rng rng(static_cast<uint64_t>(seed));
  const gyo::Relation universal =
      gyo::RandomUniversal(schema.Universe(), rows, domain, rng);

  gyo::serve::QueryRequest request;
  request.schema_spec = schema_spec;
  request.target_spec = target_spec;
  request.strategy = strategy;
  request.deadline_ms = static_cast<uint64_t>(deadline_ms);
  request.want_plan = want_plan;
  request.states = gyo::ProjectDatabase(universal, schema);

  gyo::serve::QueryResponse response;
  const gyo::serve::Client::Outcome outcome =
      client.Query(request, &response);
  if (outcome == gyo::serve::Client::Outcome::kServerError) {
    std::fprintf(stderr, "server error: %s: %s\n",
                 gyo::serve::ErrorCodeName(client.server_error().code),
                 client.server_error().message.c_str());
    return 3;
  }
  if (outcome != gyo::serve::Client::Outcome::kOk) {
    std::fprintf(stderr, "error: %s\n", client.io_error().c_str());
    return 1;
  }

  std::printf("result: %lld rows (max intermediate %lld, produced %lld)\n",
              static_cast<long long>(response.stats.result_rows),
              static_cast<long long>(response.stats.max_intermediate_rows),
              static_cast<long long>(response.stats.total_rows_produced));
  std::printf("timing: %.3f ms queued, %.3f ms running\n",
              response.query_stats.queue_wait_seconds * 1e3,
              response.query_stats.run_time_seconds * 1e3);
  std::printf("counters:\n");
  gyo_examples::PrintCounters(response.query_stats, "  ");
  if (response.has_plan) {
    std::printf(
        "plan: %s, %d statements, critical path %d, %d sources\n",
        gyo::serve::StrategyName(response.plan.strategy),
        response.plan.num_statements, response.plan.critical_path,
        response.plan.num_source_statements);
  }
  return 0;
}
