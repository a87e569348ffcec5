#include "rel/solver.h"

#include <cstddef>
#include <utility>
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

// A relation being joined: its program id, its physical schema, and the
// attributes of that schema still live in it (the CC-pruned elimination
// order's bookkeeping; a tree-projection host keeps them all).
struct LiveRelation {
  int id;
  AttrSet schema;
  AttrSet live;
};

// Joins `group` into one relation: starts from its first member, then takes
// next the member sharing the most attributes with the join so far (the
// earliest on ties).
LiveRelation JoinMostSharedFirst(Program& p, std::vector<LiveRelation> group) {
  LiveRelation acc = std::move(group.front());
  group.erase(group.begin());
  while (!group.empty()) {
    size_t pick = 0;
    int most = -1;
    for (size_t i = 0; i < group.size(); ++i) {
      const int shared = group[i].schema.Intersect(acc.schema).Size();
      if (shared > most) {
        most = shared;
        pick = i;
      }
    }
    acc.id = p.AddJoin(acc.id, group[pick].id);
    acc.schema.UnionWith(group[pick].schema);
    acc.live.UnionWith(group[pick].live);
    group.erase(group.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return acc;
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
  std::vector<LiveRelation> rels;
  for (int i = 0; i < cc.schema.NumRelations(); ++i) {
    const int src = cc.sources[static_cast<size_t>(i)];
    const int id =
        cc.schema[i] == d[src] ? src : p.AddProject(src, cc.schema[i]);
    rels.push_back({id, cc.schema[i], cc.schema[i]});
  }
  GYO_CHECK(!rels.empty());
  while (true) {
    AttrSet outside_x;
    for (const LiveRelation& r : rels) outside_x.UnionWith(r.live);
    outside_x.MinusWith(x);
    if (outside_x.Empty()) break;
    // The attribute whose live relations span the fewest live attributes;
    // ties go to fewer relations, then to the lower id (ForEach ascends).
    AttrId pick = -1;
    int pick_scope = 0;
    int pick_count = 0;
    outside_x.ForEach([&](AttrId a) {
      AttrSet scope;
      int count = 0;
      for (const LiveRelation& r : rels) {
        if (!r.live.Contains(a)) continue;
        scope.UnionWith(r.live);
        ++count;
      }
      const int size = scope.Size();
      if (pick < 0 || size < pick_scope ||
          (size == pick_scope && count < pick_count)) {
        pick = a;
        pick_scope = size;
        pick_count = count;
      }
    });
    // Join the relations holding it; the result takes the first one's place.
    std::vector<LiveRelation> group;
    std::vector<LiveRelation> rest;
    size_t slot = 0;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i].live.Contains(pick)) {
        if (group.empty()) slot = rest.size();
        group.push_back(std::move(rels[i]));
      } else {
        rest.push_back(std::move(rels[i]));
      }
    }
    LiveRelation joined = JoinMostSharedFirst(p, std::move(group));
    // An attribute outside X that no other relation holds dies: it stays in
    // the physical schema but can never be a join key again.
    AttrSet keep = x;
    for (const LiveRelation& r : rest) keep.UnionWith(r.live);
    joined.live.IntersectWith(keep);
    rest.insert(rest.begin() + static_cast<std::ptrdiff_t>(slot),
                std::move(joined));
    rels = std::move(rest);
  }
  const LiveRelation result = JoinMostSharedFirst(p, std::move(rels));
  if (result.schema != x || p.NumStatements() == 0) {
    p.AddProject(result.id, x);
  }
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
  Program p(d.NumRelations());
  std::vector<int> bag_ids(static_cast<size_t>(nb));
  std::vector<AttrSet> bag_schemas(static_cast<size_t>(nb));
  for (int v = 0; v < nb; ++v) {
    // Hosts: every base relation inside the bag (so each base relation is
    // joined into a bag containing it), then, for each bag attribute still
    // uncovered, the first base relation holding it projected onto its part
    // inside the bag. No host join ever leaves its bag.
    std::vector<LiveRelation> hosts;
    AttrSet covered;
    for (int r = 0; r < d.NumRelations(); ++r) {
      if (!d[r].IsSubsetOf(bags[v])) continue;
      hosts.push_back({r, d[r], d[r]});
      covered.UnionWith(d[r]);
    }
    bags[v].ForEach([&](AttrId a) {
      if (covered.Contains(a)) return;
      for (int r = 0; r < d.NumRelations(); ++r) {
        if (d[r].Contains(a)) {
          const AttrSet part = d[r].Intersect(bags[v]);
          hosts.push_back({p.AddProject(r, part), part, part});
          covered.UnionWith(part);
          return;
        }
      }
      GYO_CHECK_MSG(false, "bag attribute %d not in any base relation", a);
    });
    GYO_CHECK(!hosts.empty());
    // Joining the most-shared host next avoids any Cartesian product inside
    // a bag that its hosts' connectivity allows.
    const LiveRelation host = JoinMostSharedFirst(p, std::move(hosts));
    GYO_DCHECK(host.schema == bags[v]);
    bag_ids[static_cast<size_t>(v)] = host.id;
    bag_schemas[static_cast<size_t>(v)] = bags[v];
  }
  AppendReduceAndJoin(p, *tree, bag_ids, bag_schemas, x,
                      /*full_reduce=*/true, /*early_project=*/true);
  if (p.NumStatements() == 0) p.AddProject(bag_ids[0], x);
  return p;
}

}  // namespace gyo
