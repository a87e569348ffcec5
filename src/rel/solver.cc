#include "rel/solver.h"

#include <algorithm>
#include <vector>

#include "gyo/qual_graph.h"
#include "tableau/canonical.h"
#include "util/check.h"

namespace gyo {

namespace {

// Appends the reduce-then-join phases shared by Yannakakis and the
// tree-projection evaluator.
//
// `node_ids` holds the current program id of each tree node's relation;
// `node_schemas` their schemas; `tree` a qual tree whose edges are listed in
// ear-removal order (edge k = (child, parent), children removed first).
void AppendReduceAndJoin(Program& p, const QualGraph& tree,
                         const std::vector<int>& node_ids_in,
                         const std::vector<AttrSet>& node_schemas,
                         const AttrSet& x, bool full_reduce,
                         bool early_project) {
  const int n = tree.num_nodes;
  std::vector<int> ids = node_ids_in;
  GYO_CHECK(static_cast<int>(ids.size()) == n);

  if (n == 1) {
    if (!(node_schemas[0] == x)) p.AddProject(ids[0], x);
    return;
  }

  if (full_reduce) {
    // Upward pass (children before parents — the edge order), then downward.
    for (const auto& [child, parent] : tree.edges) {
      ids[static_cast<size_t>(parent)] =
          p.AddSemijoin(ids[static_cast<size_t>(parent)],
                        ids[static_cast<size_t>(child)]);
    }
    for (auto it = tree.edges.rbegin(); it != tree.edges.rend(); ++it) {
      ids[static_cast<size_t>(it->first)] = p.AddSemijoin(
          ids[static_cast<size_t>(it->first)],
          ids[static_cast<size_t>(it->second)]);
    }
  }

  // Join order: root first, then children in reverse removal order — every
  // node joins after its parent, so the accumulated schema always intersects
  // the next relation.
  std::vector<bool> removed(static_cast<size_t>(n), false);
  for (const auto& [child, parent] : tree.edges) {
    (void)parent;
    removed[static_cast<size_t>(child)] = true;
  }
  int root = -1;
  for (int i = 0; i < n; ++i) {
    if (!removed[static_cast<size_t>(i)]) root = i;
  }
  GYO_CHECK(root >= 0);

  std::vector<int> join_order = {root};
  for (auto it = tree.edges.rbegin(); it != tree.edges.rend(); ++it) {
    join_order.push_back(it->first);
  }

  // Suffix unions of schemas still to be joined, for early projection.
  std::vector<AttrSet> suffix(static_cast<size_t>(n) + 1);
  for (int i = n - 1; i >= 0; --i) {
    suffix[static_cast<size_t>(i)] =
        suffix[static_cast<size_t>(i) + 1].Union(
            node_schemas[static_cast<size_t>(join_order[static_cast<size_t>(i)])]);
  }

  int acc = ids[static_cast<size_t>(root)];
  AttrSet acc_schema = node_schemas[static_cast<size_t>(root)];
  for (int i = 1; i < n; ++i) {
    int v = join_order[static_cast<size_t>(i)];
    acc = p.AddJoin(acc, ids[static_cast<size_t>(v)]);
    acc_schema.UnionWith(node_schemas[static_cast<size_t>(v)]);
    if (early_project) {
      AttrSet needed =
          acc_schema.Intersect(suffix[static_cast<size_t>(i) + 1].Union(x));
      if (needed != acc_schema) {
        acc = p.AddProject(acc, needed);
        acc_schema = needed;
      }
    }
  }
  if (!(acc_schema == x)) p.AddProject(acc, x);
}

}  // namespace

Program FullJoinProgram(const DatabaseSchema& d, const AttrSet& x) {
  GYO_CHECK(!d.Empty());
  Program p(d.NumRelations());
  int acc = 0;
  for (int i = 1; i < d.NumRelations(); ++i) acc = p.AddJoin(acc, i);
  p.AddProject(acc, x);
  return p;
}

Program CCPrunedProgram(const DatabaseSchema& d, const AttrSet& x) {
  GYO_CHECK(!d.Empty());
  CanonicalResult cc = CanonicalConnection(d, x);
  Program p(d.NumRelations());
  std::vector<int> ids;
  for (int i = 0; i < cc.schema.NumRelations(); ++i) {
    int src = cc.sources[static_cast<size_t>(i)];
    if (cc.schema[i] == d[src]) {
      ids.push_back(src);
    } else {
      ids.push_back(p.AddProject(src, cc.schema[i]));
    }
  }
  GYO_CHECK(!ids.empty());
  int acc = ids[0];
  AttrSet acc_schema = cc.schema[0];
  for (size_t i = 1; i < ids.size(); ++i) {
    acc = p.AddJoin(acc, ids[i]);
    acc_schema.UnionWith(cc.schema[static_cast<int>(i)]);
  }
  if (!(acc_schema == x) || p.NumStatements() == 0) p.AddProject(acc, x);
  return p;
}

std::optional<Program> YannakakisProgram(const DatabaseSchema& d,
                                         const AttrSet& x,
                                         const YannakakisOptions& options) {
  GYO_CHECK(!d.Empty());
  std::optional<QualGraph> tree = BuildJoinTree(d);
  if (!tree.has_value()) return std::nullopt;
  Program p(d.NumRelations());
  std::vector<int> ids(static_cast<size_t>(d.NumRelations()));
  std::vector<AttrSet> schemas(static_cast<size_t>(d.NumRelations()));
  for (int i = 0; i < d.NumRelations(); ++i) {
    ids[static_cast<size_t>(i)] = i;
    schemas[static_cast<size_t>(i)] = d[i];
  }
  AppendReduceAndJoin(p, *tree, ids, schemas, x, options.full_reduce,
                      options.early_project);
  if (p.NumStatements() == 0) p.AddProject(ids[0], x);
  return p;
}

std::optional<FullReducerPlan> FullReducerProgram(const DatabaseSchema& d) {
  std::optional<QualGraph> tree = BuildJoinTree(d);
  if (!tree.has_value()) return std::nullopt;
  const int n = d.NumRelations();
  FullReducerPlan plan{Program(n), std::vector<int>(static_cast<size_t>(n))};
  std::vector<int>& ids = plan.final_ids;
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  // Upward pass: children (removed first) reduce their parents...
  for (const auto& [child, parent] : tree->edges) {
    ids[static_cast<size_t>(parent)] =
        plan.program.AddSemijoin(ids[static_cast<size_t>(parent)],
                                 ids[static_cast<size_t>(child)]);
  }
  // ...then the downward pass propagates the root's state back out.
  for (auto it = tree->edges.rbegin(); it != tree->edges.rend(); ++it) {
    ids[static_cast<size_t>(it->first)] = plan.program.AddSemijoin(
        ids[static_cast<size_t>(it->first)],
        ids[static_cast<size_t>(it->second)]);
  }
  return plan;
}

std::optional<Program> TreeProjectionProgram(const DatabaseSchema& d,
                                             const AttrSet& x,
                                             const DatabaseSchema& bags) {
  GYO_CHECK(!d.Empty());
  GYO_CHECK(!bags.Empty());
  // Every base relation and the target must fit in some bag.
  DatabaseSchema to_cover = d;
  to_cover.Add(x);
  if (!to_cover.CoveredBy(bags)) return std::nullopt;
  std::optional<QualGraph> tree = BuildJoinTree(bags);
  if (!tree.has_value()) return std::nullopt;

  const int nb = bags.NumRelations();
  // Host lists: greedily cover each bag's attributes with base relations.
  std::vector<std::vector<int>> hosts(static_cast<size_t>(nb));
  for (int v = 0; v < nb; ++v) {
    AttrSet covered;
    bags[v].ForEach([&](AttrId a) {
      if (covered.Contains(a)) return;
      for (int r = 0; r < d.NumRelations(); ++r) {
        if (d[r].Contains(a)) {
          hosts[static_cast<size_t>(v)].push_back(r);
          covered.UnionWith(d[r]);
          return;
        }
      }
      GYO_CHECK_MSG(false, "bag attribute %d not in any base relation", a);
    });
  }
  // Fold every base relation into the host join of a bag containing it, so
  // its constraint is enforced somewhere.
  for (int r = 0; r < d.NumRelations(); ++r) {
    int bag = -1;
    for (int v = 0; v < nb && bag < 0; ++v) {
      if (d[r].IsSubsetOf(bags[v])) bag = v;
    }
    GYO_CHECK(bag >= 0);
    auto& h = hosts[static_cast<size_t>(bag)];
    if (std::find(h.begin(), h.end(), r) == h.end()) h.push_back(r);
  }

  Program p(d.NumRelations());
  std::vector<int> bag_ids(static_cast<size_t>(nb));
  std::vector<AttrSet> bag_schemas(static_cast<size_t>(nb));
  for (int v = 0; v < nb; ++v) {
    std::vector<int> h = hosts[static_cast<size_t>(v)];
    GYO_CHECK(!h.empty());
    // Join connected hosts first so no avoidable Cartesian product appears
    // inside a bag.
    std::vector<int> order = {h[0]};
    std::vector<bool> used(h.size(), false);
    used[0] = true;
    AttrSet reach = d[h[0]];
    while (order.size() < h.size()) {
      size_t pick = h.size();
      for (size_t i = 0; i < h.size(); ++i) {
        if (!used[i] && d[h[i]].Intersects(reach)) {
          pick = i;
          break;
        }
      }
      if (pick == h.size()) {
        for (size_t i = 0; i < h.size(); ++i) {
          if (!used[i]) {
            pick = i;
            break;
          }
        }
      }
      used[pick] = true;
      order.push_back(h[pick]);
      reach.UnionWith(d[h[pick]]);
    }
    int acc = order[0];
    AttrSet acc_schema = d[order[0]];
    for (size_t i = 1; i < order.size(); ++i) {
      acc = p.AddJoin(acc, order[i]);
      acc_schema.UnionWith(d[order[i]]);
    }
    if (!(acc_schema == bags[v])) {
      acc = p.AddProject(acc, bags[v]);
    }
    bag_ids[static_cast<size_t>(v)] = acc;
    bag_schemas[static_cast<size_t>(v)] = bags[v];
  }
  AppendReduceAndJoin(p, *tree, bag_ids, bag_schemas, x,
                      /*full_reduce=*/true, /*early_project=*/true);
  if (p.NumStatements() == 0) p.AddProject(bag_ids[0], x);
  return p;
}

}  // namespace gyo
