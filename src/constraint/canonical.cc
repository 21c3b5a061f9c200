#include "constraint/canonical.h"

#include <algorithm>

namespace lcdb {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

char RelChar(RelOp rel) {
  // LinearAtom orients greater-relations away, so only three appear.
  switch (rel) {
    case RelOp::kLt:
      return '<';
    case RelOp::kLe:
      return 'l';
    case RelOp::kEq:
      return '=';
    case RelOp::kGe:
      return 'g';
    case RelOp::kGt:
      return '>';
  }
  return '?';
}

/// Shared tail of both canonicalization entry points: `atoms` must already
/// be constant-free, sorted and deduplicated.
CanonicalSystem EncodeNormalizedAtoms(size_t num_vars,
                                      std::vector<LinearAtom> atoms,
                                      bool syntactically_false) {
  CanonicalSystem out;
  out.num_vars = num_vars;
  out.syntactically_false = syntactically_false;
  out.encoding = "n";
  out.encoding += std::to_string(num_vars);
  out.encoding += ':';
  if (syntactically_false) {
    out.encoding += 'F';
  } else {
    out.atoms = std::move(atoms);
    for (const LinearAtom& atom : out.atoms) {
      AppendAtomEncoding(atom, &out.encoding);
    }
  }
  out.hash = StableHash64(out.encoding);
  return out;
}

}  // namespace

uint64_t StableHash64(std::string_view bytes) {
  uint64_t h = kFnvOffset;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

void AppendAtomEncoding(const LinearAtom& atom, std::string* out) {
  out->push_back(RelChar(atom.rel()));
  for (size_t i = 0; i < atom.coeffs().size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += atom.coeffs()[i].ToString();
  }
  out->push_back('|');
  *out += atom.rhs().ToString();
  out->push_back(';');
}

CanonicalSystem CanonicalizeSystem(
    size_t num_vars, const std::vector<LinearConstraint>& constraints) {
  std::vector<LinearAtom> atoms;
  atoms.reserve(constraints.size());
  for (const LinearConstraint& c : constraints) {
    LinearAtom atom(c.coeffs, c.rel, c.rhs);
    if (atom.IsConstant()) {
      if (!atom.ConstantValue()) {
        return EncodeNormalizedAtoms(num_vars, {}, /*syntactically_false=*/true);
      }
      continue;  // constant-true atoms impose nothing
    }
    atoms.push_back(std::move(atom));
  }
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  return EncodeNormalizedAtoms(num_vars, std::move(atoms),
                               /*syntactically_false=*/false);
}

CanonicalSystem CanonicalizeConjunction(const Conjunction& conj) {
  if (conj.IsSyntacticallyFalse()) {
    return EncodeNormalizedAtoms(conj.num_vars(), {},
                                 /*syntactically_false=*/true);
  }
  return EncodeNormalizedAtoms(conj.num_vars(), conj.atoms(),
                               /*syntactically_false=*/false);
}

}  // namespace lcdb
