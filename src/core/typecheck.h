#ifndef LCDB_CORE_TYPECHECK_H_
#define LCDB_CORE_TYPECHECK_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/ast.h"
#include "db/database.h"
#include "util/status.h"

namespace lcdb {

/// Free variables of a node, by sort.
struct FreeVars {
  std::set<std::string> element;
  std::set<std::string> region;
  std::set<std::string> set_vars;
};

/// Result of static analysis over a query.
struct TypeInfo {
  /// Free variables of every node (keyed by node identity).
  std::map<const FormulaNode*, FreeVars> free;
  /// Every element variable name in the query (bound or free), in a fixed
  /// order — the evaluator's symbolic variable space.
  std::vector<std::string> all_element_vars;
  /// The root's free element variables in order of first appearance — the
  /// column order of the query answer.
  std::vector<std::string> free_element_order;

  const FreeVars& of(const FormulaNode& node) const {
    return free.at(&node);
  }
};

/// Statically checks a query against a database schema and computes
/// TypeInfo. Enforces the paper's well-formedness conditions:
///  * relation atoms use the database's relation name and arity; in(...)
///    atoms have arity d;
///  * every region, element and set variable is bound before use (queries
///    are formulas without free region or set variables — Defs. 4.2, 5.1);
///  * no variable shadowing or rebinding along a path (keeps the symbolic
///    variable space one column per name);
///  * fixed points: free(body) ⊆ {M, X1..Xk} plus outer *region* variables
///    are rejected per Definition 5.1 (free(φ) = {M, X̄}); no free element
///    variables; the body is positive in M for LFP; set-variable arities
///    are consistent;
///  * TC/DTC: body has free region variables exactly the bound 2m-tuple and
///    no free element variables (Definition 7.2); applied tuples have
///    matching length m;
///  * rBIT: body has exactly one free element variable (the bound one);
///    free region variables of the body are allowed (Definition 5.1 allows
///    parameters P̄).
Result<TypeInfo> TypeCheck(const FormulaNode& root,
                           const ConstraintDatabase& db);

/// True iff every occurrence of `set_var` in `node` is under an even number
/// of negations (with `->` flipping its left side and `<->` counting as an
/// occurrence of both polarities).
bool IsPositiveIn(const FormulaNode& node, const std::string& set_var,
                  bool polarity = true);

}  // namespace lcdb

#endif  // LCDB_CORE_TYPECHECK_H_
