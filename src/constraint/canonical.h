#ifndef LCDB_CONSTRAINT_CANONICAL_H_
#define LCDB_CONSTRAINT_CANONICAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "constraint/conjunction.h"

namespace lcdb {

/// The canonical form of a conjunctive constraint system, the key format of
/// the constraint kernel's caches (engine/kernel.h).
///
/// Canonicalization reuses the invariants the constraint layer already
/// enforces — per-atom GCD-normalized integer coefficients with oriented
/// relations (LinearAtom), plus sorted, deduplicated atom lists with
/// constant atoms folded away (Conjunction) — and adds a stable byte
/// encoding of that normal form together with its 64-bit FNV-1a hash. Two
/// systems that differ only by scaling, relation orientation, atom order,
/// duplicate atoms or constant atoms therefore share `encoding` (and hence
/// `hash`), which is what lets the kernel recognize the same feasibility
/// question when it arrives from different layers (DNF pruning,
/// Fourier-Motzkin redundancy tests, arrangement probes, decomposition cell
/// tests).
struct CanonicalSystem {
  size_t num_vars = 0;
  /// FNV-1a 64 of `encoding`: stable across runs and platforms, used as the
  /// cache bucket key.
  uint64_t hash = 0;
  /// Exact canonical byte encoding; resolves hash collisions in the caches.
  std::string encoding;
  /// The system contains a constant-false atom, i.e. it is trivially
  /// infeasible without any oracle call.
  bool syntactically_false = false;
  /// The canonicalized atoms: constant atoms removed, sorted, deduplicated.
  /// Empty (with `syntactically_false` unset) means TRUE.
  std::vector<LinearAtom> atoms;
};

/// Stable FNV-1a 64-bit hash of a byte string.
uint64_t StableHash64(std::string_view bytes);

/// Appends the canonical byte encoding of one atom to `out`. The encoding
/// is `R c_1,...,c_n|rhs;` with R the oriented relation character and the
/// coefficients in decimal.
void AppendAtomEncoding(const LinearAtom& atom, std::string* out);

/// Canonicalizes a raw LP-level system: every constraint is rebuilt as a
/// canonical LinearAtom, constant atoms are folded, and the result is
/// sorted and deduplicated before encoding.
CanonicalSystem CanonicalizeSystem(
    size_t num_vars, const std::vector<LinearConstraint>& constraints);

/// Canonicalizes a Conjunction. Its invariant already provides the
/// normalized atom list, so this only encodes and hashes; the result equals
/// `CanonicalizeSystem(conj.num_vars(), conj.ToConstraints())`.
CanonicalSystem CanonicalizeConjunction(const Conjunction& conj);

}  // namespace lcdb

#endif  // LCDB_CONSTRAINT_CANONICAL_H_
