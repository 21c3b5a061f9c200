#ifndef LCDB_PLAN_PLANNER_H_
#define LCDB_PLAN_PLANNER_H_

#include "core/ast.h"
#include "core/typecheck.h"
#include "db/region_extension.h"
#include "plan/plan_ir.h"

namespace lcdb {

/// Lowers a typechecked query AST into a raw plan (plan/plan_ir.h).
///
/// The lowering is a faithful, mode-annotated image of the query: the root
/// and every element-sort subformula become symbolic operators, fixed-point
/// / closure bodies become boolean operators, and each atom is compiled as
/// far as it can be without a region environment — comparison and relation
/// atoms fold to constant formulas, in(...)/hull terms fold to affine
/// substitution maps, element quantifiers to column indices. The raw plan
/// and every optimized form of it must reproduce the pinned golden answers
/// (tests/golden/) byte for byte.
CompiledPlan BuildPlan(const FormulaNode& query, const TypeInfo& info,
                       const RegionExtension& ext);

}  // namespace lcdb

#endif  // LCDB_PLAN_PLANNER_H_
