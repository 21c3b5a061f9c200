#include "core/typecheck.h"

#include <algorithm>

namespace lcdb {

namespace {

/// Sorts tracked while walking the tree.
enum class VarSort { kElement, kRegion, kSet };

class Checker {
 public:
  explicit Checker(const ConstraintDatabase& db) : db_(db) {}

  Status Check(const FormulaNode& node) {
    LCDB_RETURN_IF_ERROR(Visit(node));
    // Root must be a query: no free region or set variables (Defs 4.2, 5.1).
    const FreeVars& fv = info_.free.at(&node);
    if (!fv.region.empty()) {
      return Status::InvalidArgument("query has free region variable '" +
                                     *fv.region.begin() + "'");
    }
    if (!fv.set_vars.empty()) {
      return Status::InvalidArgument("query has free set variable '" +
                                     *fv.set_vars.begin() + "'");
    }
    return Status::Ok();
  }

  TypeInfo TakeInfo() { return std::move(info_); }

 private:
  Status Error(const FormulaNode& node, const std::string& message) {
    std::string where = " in: " + node.ToString();
    if (node.span.valid()) {
      where += " (at offset " + std::to_string(node.span.begin) + ")";
    }
    return Status::InvalidArgument(message + where);
  }

  void NoteElementVar(const std::string& name) {
    if (std::find(element_appearance_.begin(), element_appearance_.end(),
                  name) == element_appearance_.end()) {
      element_appearance_.push_back(name);
    }
  }

  Status CheckTermVars(const FormulaNode& node, const ElementTerm& term,
                       FreeVars* fv) {
    for (const auto& [name, coeff] : term.coeffs) {
      if (bound_.count(name)) {
        if (bound_.at(name) != VarSort::kElement) {
          return Error(node, "variable '" + name + "' is not element-sorted");
        }
      }
      fv->element.insert(name);
      NoteElementVar(name);
    }
    return Status::Ok();
  }

  Status CheckRegionVar(const FormulaNode& node, const std::string& name,
                        FreeVars* fv) {
    auto it = bound_.find(name);
    if (it != bound_.end() && it->second != VarSort::kRegion) {
      return Error(node, "variable '" + name + "' is not region-sorted");
    }
    fv->region.insert(name);
    return Status::Ok();
  }

  Status Bind(const FormulaNode& node, const std::string& name,
              VarSort sort) {
    if (bound_.count(name)) {
      return Error(node, "variable '" + name + "' shadows an outer binding");
    }
    bound_.emplace(name, sort);
    if (sort == VarSort::kElement) NoteElementVar(name);
    return Status::Ok();
  }

  void Unbind(const std::string& name) { bound_.erase(name); }

  Status Visit(const FormulaNode& node) {
    FreeVars fv;
    switch (node.kind) {
      case NodeKind::kTrue:
      case NodeKind::kFalse:
        break;
      case NodeKind::kCompare:
        LCDB_RETURN_IF_ERROR(CheckTermVars(node, node.lhs, &fv));
        LCDB_RETURN_IF_ERROR(CheckTermVars(node, node.rhs, &fv));
        break;
      case NodeKind::kRelationAtom:
        if (node.relation_name != db_.relation_name()) {
          return Error(node, "unknown relation '" + node.relation_name + "'");
        }
        if (node.terms.size() != db_.arity()) {
          return Error(node, "relation arity mismatch (expected " +
                                 std::to_string(db_.arity()) + ")");
        }
        for (const ElementTerm& t : node.terms) {
          LCDB_RETURN_IF_ERROR(CheckTermVars(node, t, &fv));
        }
        break;
      case NodeKind::kInRegion:
        if (node.terms.size() != db_.arity()) {
          return Error(node, "in(...) arity mismatch (expected " +
                                 std::to_string(db_.arity()) + ")");
        }
        for (const ElementTerm& t : node.terms) {
          LCDB_RETURN_IF_ERROR(CheckTermVars(node, t, &fv));
        }
        LCDB_RETURN_IF_ERROR(CheckRegionVar(node, node.region_args[0], &fv));
        break;
      case NodeKind::kAdjacent:
      case NodeKind::kRegionEq:
        LCDB_RETURN_IF_ERROR(CheckRegionVar(node, node.region_args[0], &fv));
        LCDB_RETURN_IF_ERROR(CheckRegionVar(node, node.region_args[1], &fv));
        break;
      case NodeKind::kSubsetS:
      case NodeKind::kIntersectsS:
      case NodeKind::kBoundedAtom:
      case NodeKind::kDimAtom:
        LCDB_RETURN_IF_ERROR(CheckRegionVar(node, node.region_args[0], &fv));
        break;
      case NodeKind::kSetAtom: {
        auto it = bound_.find(node.set_var);
        if (it == bound_.end() || it->second != VarSort::kSet) {
          return Error(node, "unbound set variable '" + node.set_var + "'");
        }
        auto arity_it = set_arity_.find(node.set_var);
        if (arity_it->second != node.region_args.size()) {
          return Error(node, "set variable arity mismatch for '" +
                                 node.set_var + "'");
        }
        fv.set_vars.insert(node.set_var);
        for (const std::string& r : node.region_args) {
          LCDB_RETURN_IF_ERROR(CheckRegionVar(node, r, &fv));
        }
        break;
      }
      case NodeKind::kNot:
      case NodeKind::kAnd:
      case NodeKind::kOr:
      case NodeKind::kImplies:
      case NodeKind::kIff:
        for (const auto& child : node.children) {
          LCDB_RETURN_IF_ERROR(Visit(*child));
          const FreeVars& cv = info_.free.at(child.get());
          fv.element.insert(cv.element.begin(), cv.element.end());
          fv.region.insert(cv.region.begin(), cv.region.end());
          fv.set_vars.insert(cv.set_vars.begin(), cv.set_vars.end());
        }
        break;
      case NodeKind::kExistsElem:
      case NodeKind::kForallElem: {
        const std::string& var = node.bound_vars[0];
        LCDB_RETURN_IF_ERROR(Bind(node, var, VarSort::kElement));
        LCDB_RETURN_IF_ERROR(Visit(*node.children[0]));
        Unbind(var);
        fv = info_.free.at(node.children[0].get());
        fv.element.erase(var);
        break;
      }
      case NodeKind::kExistsRegion:
      case NodeKind::kForallRegion: {
        const std::string& var = node.bound_vars[0];
        LCDB_RETURN_IF_ERROR(Bind(node, var, VarSort::kRegion));
        LCDB_RETURN_IF_ERROR(Visit(*node.children[0]));
        Unbind(var);
        fv = info_.free.at(node.children[0].get());
        fv.region.erase(var);
        break;
      }
      case NodeKind::kLfp:
      case NodeKind::kIfp:
      case NodeKind::kPfp: {
        if (node.bound_vars.empty()) {
          return Error(node, "fixed point needs bound region variables");
        }
        if (node.region_args.size() != node.bound_vars.size()) {
          return Error(node, "fixed point applied to wrong-length tuple");
        }
        LCDB_RETURN_IF_ERROR(Bind(node, node.set_var, VarSort::kSet));
        set_arity_.emplace(node.set_var, node.bound_vars.size());
        for (const std::string& r : node.bound_vars) {
          LCDB_RETURN_IF_ERROR(Bind(node, r, VarSort::kRegion));
        }
        LCDB_RETURN_IF_ERROR(Visit(*node.children[0]));
        const FreeVars& body = info_.free.at(node.children[0].get());
        // Definition 5.1: free(body) = {M, X1..Xk}; in particular no free
        // element variables and no region variables from outer scope.
        if (!body.element.empty()) {
          return Error(node, "fixed-point body has free element variable '" +
                                 *body.element.begin() + "'");
        }
        for (const std::string& r : body.region) {
          if (std::find(node.bound_vars.begin(), node.bound_vars.end(), r) ==
              node.bound_vars.end()) {
            return Error(node, "fixed-point body uses outer region '" + r +
                                   "'");
          }
        }
        for (const std::string& m : body.set_vars) {
          if (m != node.set_var) {
            return Error(node,
                         "fixed-point body uses outer set variable '" + m +
                             "'");
          }
        }
        // Positivity of LFP bodies (Definition 5.1) is the analyzer's
        // LCDB001: analysis/analyzer.cc reports it with a source span, and
        // Evaluate rejects before planning. TypeCheck only scopes and sorts.
        for (const std::string& r : node.bound_vars) Unbind(r);
        Unbind(node.set_var);
        set_arity_.erase(node.set_var);
        for (const std::string& r : node.region_args) {
          LCDB_RETURN_IF_ERROR(CheckRegionVar(node, r, &fv));
        }
        break;
      }
      case NodeKind::kTc:
      case NodeKind::kDtc: {
        if (node.bound_vars.empty() || node.bound_vars.size() % 2 != 0) {
          return Error(node, "TC needs a 2m-tuple of bound region variables");
        }
        const size_t m = node.bound_vars.size() / 2;
        if (node.region_args.size() != m || node.region_args2.size() != m) {
          return Error(node, "TC applied to wrong-length tuples");
        }
        for (const std::string& r : node.bound_vars) {
          LCDB_RETURN_IF_ERROR(Bind(node, r, VarSort::kRegion));
        }
        LCDB_RETURN_IF_ERROR(Visit(*node.children[0]));
        const FreeVars& body = info_.free.at(node.children[0].get());
        if (!body.element.empty()) {
          return Error(node, "TC body has free element variable '" +
                                 *body.element.begin() + "'");
        }
        if (!body.set_vars.empty()) {
          return Error(node, "TC body uses a set variable");
        }
        for (const std::string& r : body.region) {
          if (std::find(node.bound_vars.begin(), node.bound_vars.end(), r) ==
              node.bound_vars.end()) {
            return Error(node, "TC body uses outer region '" + r + "'");
          }
        }
        for (const std::string& r : node.bound_vars) Unbind(r);
        for (const std::string& r : node.region_args) {
          LCDB_RETURN_IF_ERROR(CheckRegionVar(node, r, &fv));
        }
        for (const std::string& r : node.region_args2) {
          LCDB_RETURN_IF_ERROR(CheckRegionVar(node, r, &fv));
        }
        break;
      }
      case NodeKind::kHull: {
        // Section 8 extension: bind the hull variables, require the body's
        // free element variables to be among them; free region and set
        // variables of the body stay free (the hulled set may be
        // parameterized, and conv is monotone so positivity analysis
        // recurses through transparently).
        for (const std::string& v : node.bound_vars) {
          LCDB_RETURN_IF_ERROR(Bind(node, v, VarSort::kElement));
        }
        LCDB_RETURN_IF_ERROR(Visit(*node.children[0]));
        FreeVars body = info_.free.at(node.children[0].get());
        for (const std::string& v : node.bound_vars) {
          Unbind(v);
          body.element.erase(v);
        }
        if (!body.element.empty()) {
          return Error(node, "hull body has extra free element variable '" +
                                 *body.element.begin() + "'");
        }
        fv.region = body.region;
        fv.set_vars = body.set_vars;
        if (node.terms.size() != node.bound_vars.size()) {
          return Error(node, "hull applied to wrong-length term tuple");
        }
        for (const ElementTerm& t : node.terms) {
          LCDB_RETURN_IF_ERROR(CheckTermVars(node, t, &fv));
        }
        break;
      }
      case NodeKind::kRbit: {
        const std::string& var = node.bound_vars[0];
        LCDB_RETURN_IF_ERROR(Bind(node, var, VarSort::kElement));
        LCDB_RETURN_IF_ERROR(Visit(*node.children[0]));
        Unbind(var);
        FreeVars body = info_.free.at(node.children[0].get());
        if (!body.set_vars.empty()) {
          return Error(node, "rBIT body uses a set variable");
        }
        // Definition 5.1: exactly one free element variable (the bound one).
        body.element.erase(var);
        if (!body.element.empty()) {
          return Error(node, "rBIT body has extra free element variable '" +
                                 *body.element.begin() + "'");
        }
        // Free region variables P̄ of the body stay free in the rBIT atom.
        fv.region = body.region;
        LCDB_RETURN_IF_ERROR(CheckRegionVar(node, node.region_args[0], &fv));
        LCDB_RETURN_IF_ERROR(CheckRegionVar(node, node.region_args[1], &fv));
        break;
      }
    }
    info_.free.emplace(&node, std::move(fv));
    return Status::Ok();
  }

  const ConstraintDatabase& db_;
  TypeInfo info_;
  std::map<std::string, VarSort> bound_;
  std::map<std::string, size_t> set_arity_;
  std::vector<std::string> element_appearance_;
};

void CollectElementVars(const FormulaNode& node,
                        std::vector<std::string>* out) {
  auto note = [out](const ElementTerm& term) {
    for (const auto& [name, coeff] : term.coeffs) {
      if (std::find(out->begin(), out->end(), name) == out->end()) {
        out->push_back(name);
      }
    }
  };
  if (node.kind == NodeKind::kCompare) {
    note(node.lhs);
    note(node.rhs);
  }
  for (const ElementTerm& t : node.terms) note(t);
  if (node.kind == NodeKind::kExistsElem || node.kind == NodeKind::kForallElem ||
      node.kind == NodeKind::kRbit || node.kind == NodeKind::kHull) {
    for (const std::string& v : node.bound_vars) {
      if (std::find(out->begin(), out->end(), v) == out->end()) {
        out->push_back(v);
      }
    }
  }
  for (const auto& child : node.children) CollectElementVars(*child, out);
}

}  // namespace

bool IsPositiveIn(const FormulaNode& node, const std::string& set_var,
                  bool polarity) {
  switch (node.kind) {
    case NodeKind::kSetAtom:
      return node.set_var != set_var || polarity;
    case NodeKind::kNot:
      return IsPositiveIn(*node.children[0], set_var, !polarity);
    case NodeKind::kImplies:
      return IsPositiveIn(*node.children[0], set_var, !polarity) &&
             IsPositiveIn(*node.children[1], set_var, polarity);
    case NodeKind::kIff:
      // Both polarities occur; positive only if M does not occur at all.
      return IsPositiveIn(*node.children[0], set_var, polarity) &&
             IsPositiveIn(*node.children[0], set_var, !polarity) &&
             IsPositiveIn(*node.children[1], set_var, polarity) &&
             IsPositiveIn(*node.children[1], set_var, !polarity);
    default:
      for (const auto& child : node.children) {
        if (!IsPositiveIn(*child, set_var, polarity)) return false;
      }
      return true;
  }
}

Result<TypeInfo> TypeCheck(const FormulaNode& root,
                           const ConstraintDatabase& db) {
  Checker checker(db);
  LCDB_RETURN_IF_ERROR(checker.Check(root));
  TypeInfo info = checker.TakeInfo();
  CollectElementVars(root, &info.all_element_vars);
  // Answer column order: free element variables in all_element_vars order
  // (first appearance in the tree), so Evaluate's column dropping preserves
  // exactly this order.
  const FreeVars& fv = info.free.at(&root);
  for (const std::string& v : info.all_element_vars) {
    if (fv.element.count(v)) info.free_element_order.push_back(v);
  }
  return info;
}

}  // namespace lcdb
