// Tests for the set-at-a-time relation module (plan/relation_eval.h).
//
//  * BitRelation algebra against a std::set model: conversions, popcount,
//    union / intersection / difference / complement and the word hash.
//  * Fixpoints and closures of hand-picked bodies over seeded random region
//    structures, against a brute-force per-binding interpreter that keeps
//    its sets in std::set. The bodies cover column alignment with repeated
//    and permuted arguments (M(R, R), M(R', R)), binder orders that are not
//    name-sorted, ∃/∀ projections, the fused ∃Z (M(R,Z) ∧ adj(Z,R'))
//    product, negation under IFP/PFP, Warshall on m = 1 and m = 2 tuples
//    and DTC's unique-successor filter.
//  * Mask exactness: over bodies with nonempty and rBIT leaves in every
//    short-circuit position, the leaf callback sees exactly the (binding,
//    stage) pairs that evaluation one binding at a time with short-circuits
//    reaches.
//  * Oracle parity on a decomposition: RegTC and RegDTC make exactly the
//    kernel oracle calls and closure feasibility queries of the
//    per-binding executor they replaced (numbers pinned from it).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "plan/planner.h"
#include "plan/relation_eval.h"

namespace lcdb {
namespace {

using Tuple = std::vector<size_t>;
using TupleSet = std::set<Tuple>;

TupleSet RandomTuples(std::mt19937_64& rng, size_t values, size_t arity,
                      double density) {
  TupleSet out;
  Tuple t(arity, 0);
  std::bernoulli_distribution keep(density);
  while (true) {
    if (keep(rng)) out.insert(t);
    size_t pos = arity;
    while (pos > 0 && ++t[pos - 1] == values) t[--pos] = 0;
    if (pos == 0) break;
  }
  return out;
}

TupleSet AllTuples(size_t values, size_t arity) {
  std::mt19937_64 unused(0);
  return RandomTuples(unused, values, arity, 1.0);
}

TEST(BitRelationTest, AlgebraMatchesTupleSets) {
  std::mt19937_64 rng(7001);
  for (size_t values : {1u, 3u, 63u, 64u, 65u, 130u}) {
    for (size_t arity : {0u, 1u, 2u, 3u}) {
      if (arity == 3 && values > 3) continue;
      SCOPED_TRACE("values=" + std::to_string(values) +
                   " arity=" + std::to_string(arity));
      const TupleSet a = RandomTuples(rng, values, arity, 0.3);
      const TupleSet b = RandomTuples(rng, values, arity, 0.5);
      const BitRelation ra = BitRelation::FromTuples(a, values, arity);
      const BitRelation rb = BitRelation::FromTuples(b, values, arity);
      EXPECT_EQ(ra.ToTuples(), a);
      EXPECT_EQ(ra.Count(), a.size());
      EXPECT_EQ(ra.Empty(), a.empty());
      for (const Tuple& t : AllTuples(values, arity)) {
        ASSERT_EQ(ra.Test(t.data()), a.count(t) > 0);
      }
      TupleSet uni = a, inter, diff, complement;
      uni.insert(b.begin(), b.end());
      for (const Tuple& t : a) {
        (b.count(t) ? inter : diff).insert(t);
      }
      for (const Tuple& t : AllTuples(values, arity)) {
        if (!a.count(t)) complement.insert(t);
      }
      BitRelation r = ra;
      r.OrWith(rb);
      EXPECT_EQ(r.ToTuples(), uni);
      r = ra;
      r.AndWith(rb);
      EXPECT_EQ(r.ToTuples(), inter);
      r = ra;
      r.AndNotWith(rb);
      EXPECT_EQ(r.ToTuples(), diff);
      r = ra;
      r.Invert();
      EXPECT_EQ(r.ToTuples(), complement);
      EXPECT_EQ(BitRelation::Full(values, arity).ToTuples(),
                AllTuples(values, arity));
      // Equal sets hash equally, whichever way they were built.
      BitRelation rebuilt(values, arity);
      for (const Tuple& t : a) rebuilt.Set(t.data());
      EXPECT_EQ(rebuilt, ra);
      EXPECT_EQ(rebuilt.Hash(), ra.Hash());
    }
  }
}

/// A region structure with seeded random relations: dense enough that
/// fixpoints take several stages, across the 64-region word boundary.
class RandomExtension : public RegionExtension {
 public:
  RandomExtension(size_t n, uint64_t seed)
      : db_("S", ParseDnf("x > 0", {"x"}).value(), {"x"}), n_(n) {
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution edge(3.0 / static_cast<double>(n + 1));
    std::bernoulli_distribution coin(0.6);
    adj_.assign(n, std::vector<bool>(n, false));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (edge(rng)) adj_[i][j] = adj_[j][i] = true;
      }
      subset_.push_back(coin(rng));
      meets_.push_back(subset_.back() || coin(rng));
      bounded_.push_back(coin(rng));
      dim_.push_back(static_cast<int>(rng() % 3));
    }
  }

  const ConstraintDatabase& database() const override { return db_; }
  std::string kind() const override { return "random"; }
  size_t num_regions() const override { return n_; }
  int RegionDim(size_t r) const override { return dim_[r]; }
  bool RegionBounded(size_t r) const override { return bounded_[r]; }
  bool Adjacent(size_t a, size_t b) const override { return adj_[a][b]; }
  bool RegionSubsetOfS(size_t r) const override { return subset_[r]; }
  bool RegionIntersectsS(size_t r) const override { return meets_[r]; }
  bool ContainsPoint(size_t, const Vec&) const override { return false; }
  const Conjunction& RegionFormula(size_t) const override {
    return db_.representation().disjuncts()[0];
  }
  Vec RegionWitness(size_t) const override { return {}; }
  const std::vector<size_t>& ZeroDimRegions() const override {
    return zero_dim_;
  }
  Vec ZeroDimPoint(size_t) const override { return {}; }

 private:
  ConstraintDatabase db_;
  size_t n_;
  std::vector<std::vector<bool>> adj_;
  std::vector<bool> subset_, meets_, bounded_;
  std::vector<int> dim_;
  std::vector<size_t> zero_dim_;
};

/// One evaluation of a leaf: the node, its free region values and the
/// contents of its free set variables.
struct LeafVisit {
  const PlanNode* node;
  Tuple regions;
  std::vector<TupleSet> sets;
  auto operator<=>(const LeafVisit&) const = default;
};

/// A leaf's truth in these tests: a fixed pseudo-random function of the
/// node and its region bindings. The random structure has no real regions
/// to run a leaf's element-sort subtree on, and the module and the
/// reference below only need to agree.
bool FakeLeaf(const LeafVisit& visit) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const std::string& r : visit.node->free_region) {
    h = (h ^ std::hash<std::string>{}(r)) * 0x100000001b3ull;
  }
  for (size_t r : visit.regions) h = (h ^ (r + 1)) * 0x100000001b3ull;
  return (h >> 17) % 3 != 0;
}

/// Brute-force semantics of boolean plan nodes: one binding at a time with
/// the usual short-circuits, sets as std::set, fixpoints by textbook Kleene
/// iteration (PFP divergence by remembering every stage), closures by BFS,
/// leaves (nonempty, rBIT) by FakeLeaf. Shares nothing with the module but
/// the plan and the extension.
class Reference {
 public:
  explicit Reference(const RegionExtension& ext) : ext_(ext) {}

  using Env = std::map<std::string, size_t>;
  using Sets = std::map<std::string, const TupleSet*>;

  /// Records into `visits` every leaf evaluation.
  void RecordLeaves(std::set<LeafVisit>* visits) { visits_ = visits; }

  bool Eval(const PlanNode& node, Env& env, const Sets& sets) {
    if (node.op == PlanOp::kNonEmpty || node.op == PlanOp::kRbitMember) {
      LeafVisit visit{&node, {}, {}};
      for (const std::string& r : node.free_region) {
        visit.regions.push_back(env.at(r));
      }
      for (const std::string& m : node.free_sets) {
        visit.sets.push_back(*sets.at(m));
      }
      const bool holds = FakeLeaf(visit);
      if (visits_ != nullptr) visits_->insert(std::move(visit));
      return holds;
    }
    auto args = [&](const std::vector<std::string>& vars) {
      Tuple t;
      for (const std::string& v : vars) t.push_back(env.at(v));
      return t;
    };
    const auto& c = node.children;
    switch (node.op) {
      case PlanOp::kConstBool:
        return node.const_bool;
      case PlanOp::kNotBool:
        return !Eval(*c[0], env, sets);
      case PlanOp::kAndBool:
        return Eval(*c[0], env, sets) && Eval(*c[1], env, sets);
      case PlanOp::kOrBool:
        return Eval(*c[0], env, sets) || Eval(*c[1], env, sets);
      case PlanOp::kImpliesBool:
        return !Eval(*c[0], env, sets) || Eval(*c[1], env, sets);
      case PlanOp::kIffBool:
        return Eval(*c[0], env, sets) == Eval(*c[1], env, sets);
      case PlanOp::kAnyRegion:
      case PlanOp::kAllRegion: {
        const bool any = node.op == PlanOp::kAnyRegion;
        Env inner = env;
        for (size_t r = 0; r < ext_.num_regions(); ++r) {
          inner[node.region_var] = r;
          if (Eval(*c[0], inner, sets) == any) return any;
        }
        return !any;
      }
      case PlanOp::kRegionAtom: {
        const Tuple a = args(node.region_args);
        switch (node.source_kind) {
          case NodeKind::kAdjacent: return ext_.Adjacent(a[0], a[1]);
          case NodeKind::kRegionEq: return a[0] == a[1];
          case NodeKind::kSubsetS: return ext_.RegionSubsetOfS(a[0]);
          case NodeKind::kIntersectsS: return ext_.RegionIntersectsS(a[0]);
          case NodeKind::kDimAtom: return ext_.RegionDim(a[0]) == node.dim_value;
          case NodeKind::kBoundedAtom: return ext_.RegionBounded(a[0]);
          default: ADD_FAILURE() << "unknown region atom"; return false;
        }
      }
      case PlanOp::kSetMember:
        return sets.at(node.set_var)->count(args(node.region_args)) > 0;
      case PlanOp::kFixpointMember:
        return Fixpoint(node).count(args(node.region_args)) > 0;
      case PlanOp::kClosureMember: {
        Tuple both = args(node.region_args);
        for (size_t v : args(node.region_args2)) both.push_back(v);
        return Closure(node).count(both) > 0;
      }
      default:
        ADD_FAILURE() << "unexpected operator " << PlanOpName(node.op);
        return false;
    }
  }

  const TupleSet& Fixpoint(const PlanNode& node) {
    auto it = fixpoints_.find(&node);
    if (it != fixpoints_.end()) return it->second;
    const size_t k = node.bound_vars.size();
    const bool pfp = node.source_kind == NodeKind::kPfp;
    TupleSet cur;
    std::set<TupleSet> seen = {cur};
    while (true) {
      TupleSet next = pfp ? TupleSet() : cur;
      for (const Tuple& t : AllTuples(ext_.num_regions(), k)) {
        if (!pfp && cur.count(t)) continue;  // derived tuples stay
        Env env;
        for (size_t i = 0; i < k; ++i) env[node.bound_vars[i]] = t[i];
        if (Eval(*node.children[0], env, {{node.set_var, &cur}})) {
          next.insert(t);
        }
      }
      if (next == cur) break;
      if (pfp && !seen.insert(next).second) {
        cur.clear();  // cycled without a fixed point
        break;
      }
      cur = std::move(next);
    }
    return fixpoints_.emplace(&node, std::move(cur)).first->second;
  }

  /// Reachable (ū, v̄) pairs as 2m-tuples.
  const TupleSet& Closure(const PlanNode& node) {
    auto it = closures_.find(&node);
    if (it != closures_.end()) return it->second;
    const size_t m = node.bound_vars.size() / 2;
    const TupleSet nodes = AllTuples(ext_.num_regions(), m);
    std::map<Tuple, std::vector<Tuple>> succ;
    for (const Tuple& u : nodes) {
      for (const Tuple& v : nodes) {
        Env env;
        for (size_t i = 0; i < m; ++i) {
          env[node.bound_vars[i]] = u[i];
          env[node.bound_vars[m + i]] = v[i];
        }
        if (Eval(*node.children[0], env, {})) succ[u].push_back(v);
      }
      if (node.source_kind == NodeKind::kDtc && succ[u].size() != 1) {
        succ[u].clear();
      }
    }
    TupleSet out;
    for (const Tuple& source : nodes) {
      std::set<Tuple> reached = {source};
      std::vector<Tuple> frontier = {source};
      while (!frontier.empty()) {
        Tuple u = frontier.back();
        frontier.pop_back();
        for (const Tuple& v : succ[u]) {
          if (reached.insert(v).second) frontier.push_back(v);
        }
      }
      for (const Tuple& v : reached) {
        Tuple both = source;
        both.insert(both.end(), v.begin(), v.end());
        out.insert(both);
      }
    }
    return closures_.emplace(&node, std::move(out)).first->second;
  }

 private:
  const RegionExtension& ext_;
  std::set<LeafVisit>* visits_ = nullptr;
  std::map<const PlanNode*, TupleSet> fixpoints_;
  std::map<const PlanNode*, TupleSet> closures_;
};

void CollectMembers(const PlanNode& node, std::vector<const PlanNode*>* out) {
  if (node.op == PlanOp::kFixpointMember ||
      node.op == PlanOp::kClosureMember) {
    out->push_back(&node);
  }
  for (const PlanPtr& child : node.children) CollectMembers(*child, out);
}

/// The fixpoint / closure operators of the raw plan of `text`.
std::vector<const PlanNode*> Members(const RegionExtension& ext,
                                     const std::string& text,
                                     CompiledPlan* plan) {
  auto query = ParseQuery(text, "S");
  EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  auto info = TypeCheck(**query, ext.database());
  EXPECT_TRUE(info.ok()) << text << ": " << info.status().ToString();
  *plan = BuildPlan(**query, *info, ext);
  std::vector<const PlanNode*> members;
  CollectMembers(*plan->root, &members);
  EXPECT_FALSE(members.empty()) << text;
  return members;
}

/// Member operators over (A, B), (A ; B) or (A, B ; C, D).
const std::vector<std::string>& MemberQueries() {
  static const std::vector<std::string> queries = {
      // The fused product, as in RegionConn.
      "exists A B . [lfp M R R' : (R = R' & subset(R)) | "
      "(exists Z . (M(R, Z) & adj(Z, R') & subset(R')))](A, B)",
      // Permuted and repeated arguments; a binder order that is not
      // name-sorted.
      "exists A B . [lfp M Y X : adj(Y, X) | M(X, Y) | "
      "(exists Z . (M(Y, Z) & M(Z, Z) & M(Z, X)))](A, B)",
      "exists A B . [lfp M R R' : (subset(R) & R = R') | M(R', R) | "
      "(exists Z . (M(R, Z) & M(Z, R')))](A, B)",
      // Short-circuit operands that hold a quantifier: its body runs only
      // where the left operand leaves the answer open.
      "exists A B . [lfp M R R' : (adj(R, R') & subset(R)) | "
      "(subset(R') & (exists Z . (M(R, Z) & M(Z, R'))))](A, B)",
      "exists A B . [ifp M R R' : adj(R, R') | "
      "(meets(R) -> (exists Z . (M(R, Z) & adj(Z, R'))))](A, B)",
      // The dual projection, under IFP, with implication and iff.
      "exists A B . [ifp M R R' : (forall Z . (adj(R, Z) -> M(Z, R'))) | "
      "(bounded(R) <-> meets(R'))](A, B)",
      // Non-monotone PFP: a cycling one and a converging one.
      "exists A . [pfp M R : !(M(R))](A)",
      "exists A B . [pfp M R R' : adj(R, R') & !(M(R', R)) | "
      "(dim(R) = 1 & M(R, R'))](A, B)",
      // Arity three, and a nested fixpoint in the body.
      "exists A B C . [lfp M X Y Z : (adj(X, Y) & Y = Z) | "
      "(exists W . (M(X, Y, W) & adj(W, Z)))](A, B, C)",
      "exists A . [lfp M R : subset(R) | (exists Z . (adj(R, Z) & "
      "[lfp N P Q : P = Q | (exists W . (N(P, W) & adj(W, Q)))](Z, R) "
      "& M(Z)))](A)",
      // Closures: m = 1 and m = 2, TC and DTC.
      "exists A B . [tc R ; R' : adj(R, R') & subset(R')](A ; B)",
      "exists A B . [dtc R ; R' : adj(R, R')](A ; B)",
      "exists A B . [dtc R ; R' : adj(R, R') & dim(R') = 1](A ; B)",
      "exists A B C D . [tc R1, R2 ; S1, S2 : (adj(R1, S1) & R2 = S2) | "
      "(R1 = S1 & adj(R2, S2))](A, B ; C, D)",
      "exists A B C D . [dtc R1, R2 ; S1, S2 : adj(R1, S2) & R2 = S1]"
      "(A, B ; C, D)",
  };
  return queries;
}

TEST(RelationEvalTest, MembersMatchBruteForce) {
  for (uint64_t seed : {1u, 2u}) {
    // 66 regions: rows of two words, the second partly padding.
    for (size_t n : {1u, 5u, 13u, 66u}) {
      RandomExtension ext(n, seed * 100 + n);
      for (const std::string& text : MemberQueries()) {
        // Three-variable relations over 66 regions are fine; the
        // four-variable closures stay on the small structures.
        if (n > 13 && text.find("R1, R2") != std::string::npos) continue;
        if (n > 13 && text.find("X Y Z") != std::string::npos) continue;
        SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                     std::to_string(n) + ": " + text);
        CompiledPlan plan;
        const std::vector<const PlanNode*> members =
            Members(ext, text, &plan);
        Evaluator::Options options;
        Evaluator::Stats stats;
        RelationEvaluator relations(
            ext, options, &stats,
            [](const PlanNode&, RegionEnv&, const SetEnv&) {
              ADD_FAILURE() << "no leaf in a region-pure body";
              return false;
            });
        Reference reference(ext);
        for (const PlanNode* node : members) {
          if (node->op == PlanOp::kFixpointMember) {
            EXPECT_EQ(relations.Fixpoint(*node).ToTuples(),
                      reference.Fixpoint(*node));
          } else {
            EXPECT_EQ(relations.Closure(*node).ToTuples(),
                      reference.Closure(*node));
          }
          // The lift_bool boundary: membership at bound arguments.
          std::mt19937_64 rng(seed);
          for (int probe = 0; probe < 20; ++probe) {
            RegionEnv renv;
            Reference::Env env;
            for (const std::string& v : node->free_region) {
              env[v] = renv[v] = rng() % n;
            }
            EXPECT_EQ(relations.EvalBound(*node, renv, {}),
                      reference.Eval(*node, env, {}));
          }
        }
        EXPECT_GT(stats.relation_word_ops, 0u);
      }
    }
  }
}

/// Member operators whose bodies hold leaves — nonempty (`exists x .
/// in(x; Z)`) and rBIT — as either operand of ∧, ∨, → and ↔, under ∃ and
/// ∀, reading the set variable, and in closure edges.
const std::vector<std::string>& LeafQueries() {
  static const std::vector<std::string> queries = {
      // Right of ∧ inside the fused product, and right of ∧ at the top.
      "exists A B . [lfp M R R' : (R = R' & (exists x . in(x; R))) | "
      "(exists Z . (M(R, Z) & adj(Z, R') & (exists x . in(x; R'))))]"
      "(A, B)",
      // Right of ∨; a leaf over the quantified variable alone.
      "exists A B . [lfp M R R' : adj(R, R') | M(R', R) | "
      "(exists Z . (M(R, Z) & M(Z, R') & (exists x . in(x; Z))))](A, B)",
      // Left of ∧ and both sides of →.
      "exists A B . [ifp M R R' : ((exists x . in(x; R)) & adj(R, R')) | "
      "((exists x . in(x; R')) -> (exists Z . (M(R, Z) & adj(Z, R'))))]"
      "(A, B)",
      // Under ∀, where a refuted tuple leaves the mask.
      "exists A B . [ifp M R R' : bounded(R) | (forall Z . (adj(R, Z) -> "
      "((exists x . in(x; Z)) & M(Z, R'))))](A, B)",
      // A leaf that reads the set variable: one fill per binding and stage.
      "exists A B . [lfp M R R' : R = R' | (exists Z . (adj(R, Z) & "
      "(exists x . (in(x; Z) & M(Z, R')))))](A, B)",
      // rBIT as the right operand of the product.
      "exists A B . [lfp M R R' : R = R' | "
      "(exists Z . (M(R, Z) & [rbit x : x = 1](Z, R')))](A, B)",
      // ↔ evaluates both sides; PFP keeps no derived tuple.
      "exists A . [pfp M R : (exists x . in(x; R)) <-> !(M(R))](A)",
      // Closure edges: a leaf right of ∧ and left of ∨.
      "exists A B . [tc R ; R' : adj(R, R') & (exists x . in(x; R'))]"
      "(A ; B)",
      "exists A B . [dtc R ; R' : ((exists x . in(x; R)) & R = R') | "
      "adj(R, R')](A ; B)",
  };
  return queries;
}

TEST(RelationEvalTest, LeavesSeeExactlyTheShortCircuitBindings) {
  // The masks must hand the leaf callback exactly the bindings — and
  // set-variable stages — that one-binding-at-a-time evaluation with
  // short-circuits reaches: no more (leaf work is LP and QE on real
  // extensions), no fewer.
  size_t leaf_visits = 0;
  for (uint64_t seed : {1u, 2u}) {
    for (size_t n : {5u, 13u, 66u}) {
      RandomExtension ext(n, seed * 100 + n);
      for (const std::string& text : LeafQueries()) {
        // A visit of the set-reading leaf copies its stage: keep it small.
        if (n > 13 && text.find("in(x; Z) & M") != std::string::npos) {
          continue;
        }
        SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                     std::to_string(n) + ": " + text);
        CompiledPlan plan;
        const std::vector<const PlanNode*> members =
            Members(ext, text, &plan);
        Evaluator::Options options;
        Evaluator::Stats stats;
        std::set<LeafVisit> leaf_calls;
        RelationEvaluator relations(
            ext, options, &stats,
            [&](const PlanNode& leaf, RegionEnv& renv, const SetEnv& senv) {
              EXPECT_TRUE(leaf.op == PlanOp::kNonEmpty ||
                          leaf.op == PlanOp::kRbitMember)
                  << PlanOpName(leaf.op);
              LeafVisit visit{&leaf, {}, {}};
              for (const std::string& r : leaf.free_region) {
                visit.regions.push_back(renv.at(r));
              }
              for (const std::string& m : leaf.free_sets) {
                visit.sets.push_back(senv.at(m).relation->ToTuples());
              }
              const bool holds = FakeLeaf(visit);
              leaf_calls.insert(std::move(visit));
              return holds;
            });
        std::set<LeafVisit> reference_visits;
        Reference reference(ext);
        reference.RecordLeaves(&reference_visits);
        for (const PlanNode* node : members) {
          if (node->op == PlanOp::kFixpointMember) {
            EXPECT_EQ(relations.Fixpoint(*node).ToTuples(),
                      reference.Fixpoint(*node));
          } else {
            EXPECT_EQ(relations.Closure(*node).ToTuples(),
                      reference.Closure(*node));
          }
        }
        EXPECT_EQ(leaf_calls, reference_visits);
        EXPECT_FALSE(leaf_calls.empty());
        leaf_visits += leaf_calls.size();
      }
    }
  }
  EXPECT_GT(leaf_visits, 0u);
}

TEST(RelationEvalTest, DecompositionOracleCallsMatchPerBindingExecutor) {
  // RegTC / RegDTC on a decomposition: adj and subset are LP decisions, so
  // masking must keep the oracle work exactly that of the per-binding
  // executor. Pinned from that executor, on a fresh kernel and extension
  // per query.
  struct Pin {
    size_t slabs;
    uint64_t seed;
    uint64_t oracle_calls;
    size_t closure_feasibility_queries;
  };
  for (const Pin& pin : {Pin{1, 7, 793, 813}, Pin{2, 1001, 2451, 2747}}) {
    for (bool deterministic : {false, true}) {
      SCOPED_TRACE(std::string(deterministic ? "dtc" : "tc") + " slabs " +
                   std::to_string(pin.slabs));
      ConstraintKernel kernel;
      ScopedKernel scoped(kernel);
      auto ext = MakeDecompositionExtension(
          MakeRandomSlabs(pin.slabs, 2, 100, pin.seed));
      auto query = ParseQuery(RegionConnTcQueryText(deterministic), "S");
      ASSERT_TRUE(query.ok());
      Evaluator evaluator(*ext);
      auto truth = evaluator.EvaluateSentence(**query);
      ASSERT_TRUE(truth.ok()) << truth.status().ToString();
      EXPECT_EQ(*truth, !deterministic);
      EXPECT_EQ(evaluator.stats().kernel.oracle_calls, pin.oracle_calls);
      EXPECT_EQ(evaluator.stats().closure_feasibility_queries,
                pin.closure_feasibility_queries);
    }
  }
}

}  // namespace
}  // namespace lcdb
