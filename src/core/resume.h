#ifndef LCDB_CORE_RESUME_H_
#define LCDB_CORE_RESUME_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "plan/bit_relation.h"

namespace lcdb {

struct PlanNode;

/// Checkpoint/resume for fixpoint evaluation (ISSUE 8).
///
/// The paper's RegLFP/RegPFP semantics make long Kleene iterations the
/// dominant evaluation cost, and a tripped budget used to discard every
/// completed stage: QueryInterrupt unwinds past the fixpoint caches, which
/// only ever hold complete entries. The resume layer preserves that paid-for
/// work across the interrupt instead. While an Evaluate call runs, a
/// thread-local ResumeCollector (the same ambient-install idiom as
/// ScopedKernel / ScopedGovernor / ScopedTracer) observes the fixpoint
/// engine, the tree executor's relation module (plan/relation_eval.cc).
/// When an interrupt unwinds, it deposits:
///
///  * every *completed* fixpoint set and closure relation (harvested from
///    the engine's per-query cache during the unwind), and
///  * for the fixpoint loops the interrupt crossed, the *in-progress*
///    approximation: the last fully computed Kleene stage, its iteration
///    counter, and — for PFP — the cycle detector's per-stage hash history.
///
/// The evaluator packages the collected ResumeState behind an opaque token
/// carried on the returned Status; a follow-up Evaluate(query, token) with a
/// fresh budget re-installs the state and continues from the saved stage.
/// Correctness rests on Definition 5.1: free(body) = {M, X̄}, so a fixpoint
/// (or closure) set is a pure function of its operator — independent of the
/// outer environment — and a saved approximation is valid wherever the same
/// operator is re-encountered.
///
/// Sites are keyed by deterministic pre-order ordinals over the fixpoint /
/// closure operators of the executed plan. Compilation and optimization are
/// deterministic, so re-evaluating the same query under the same options
/// assigns identical keys.
///
/// Sets are stored in the executor's own form, the BitRelation it computed
/// (plan/bit_relation.h), so capture and restore are copies.
struct FixpointResumePoint {
  /// The last fully computed Kleene stage (stages are never partial: an
  /// interrupt mid-stage discards only that stage's tuples, and the stage
  /// function is pure, so recomputing it is deterministic).
  BitRelation approximation;
  /// Number of fully completed stage transitions; the resumed loop continues
  /// at this iteration index.
  size_t iteration = 0;
  /// PFP cycle-detector history: one stable hash per completed stage,
  /// excluding the hash of `approximation` itself (the resumed loop's first
  /// SeenBefore call re-records it).
  std::vector<uint64_t> pfp_hashes;
};

/// Snapshot of recoverable evaluation progress, keyed by site ordinal.
struct ResumeState {
  /// Completed fixpoint sets (over the bound variables, in binder order)
  /// and closure reachability relations (over X̄, Ȳ).
  std::map<uint64_t, BitRelation> completed;
  std::map<uint64_t, FixpointResumePoint> in_progress;

  bool empty() const { return completed.empty() && in_progress.empty(); }
};

/// Per-Evaluate collector the fixpoint engines talk to. Owned by the
/// evaluator for the duration of one Evaluate call and published through
/// ScopedResumeCollector; a null CurrentResumeCollectorOrNull() (capture
/// disabled, or code running outside Evaluate) degrades every hook to a
/// no-op.
class ResumeCollector {
 public:
  ResumeCollector() = default;
  explicit ResumeCollector(ResumeState seed) : state_(std::move(seed)) {}

  /// Site registration: assigns the next pre-order ordinal (1-based; 0 is
  /// the "unregistered" sentinel) to a fixpoint/closure operator node.
  void RegisterSite(const void* node) {
    site_keys_.emplace(node, site_keys_.size() + 1);
  }
  /// The ordinal assigned to `node`, or 0 when it was never registered.
  uint64_t SiteKey(const void* node) const {
    auto it = site_keys_.find(node);
    return it == site_keys_.end() ? 0 : it->second;
  }

  // --- Reuse (consulted at fixpoint/closure entry) ---

  const BitRelation* Completed(uint64_t site) const {
    auto it = state_.completed.find(site);
    return it == state_.completed.end() ? nullptr : &it->second;
  }
  /// Moves the in-progress point for `site` into `*point` and erases it
  /// (each checkpoint is consumed exactly once; the loop that consumed it
  /// either completes — landing in `completed` on the next capture —
  /// or re-checkpoints a fresher approximation).
  bool TakeInProgress(uint64_t site, FixpointResumePoint* point) {
    auto it = state_.in_progress.find(site);
    if (it == state_.in_progress.end()) return false;
    *point = std::move(it->second);
    state_.in_progress.erase(it);
    return true;
  }

  // --- Capture (called during an interrupt unwind) ---

  void CaptureInProgress(uint64_t site, BitRelation approximation,
                         size_t iteration, std::vector<uint64_t> pfp_hashes) {
    FixpointResumePoint& point = state_.in_progress[site];
    point.approximation = std::move(approximation);
    point.iteration = iteration;
    point.pfp_hashes = std::move(pfp_hashes);
  }
  void CaptureCompleted(uint64_t site, const BitRelation& relation) {
    state_.completed[site] = relation;
  }

  /// Anything worth a resume token?
  bool has_progress() const { return !state_.empty(); }
  ResumeState TakeState() { return std::move(state_); }

 private:
  ResumeState state_;
  std::map<const void*, uint64_t> site_keys_;
};

/// The collector the current thread's fixpoint engines report to, or null.
ResumeCollector* CurrentResumeCollectorOrNull();

/// RAII install of `collector` as the thread's current resume collector.
class ScopedResumeCollector {
 public:
  explicit ScopedResumeCollector(ResumeCollector& collector);
  ~ScopedResumeCollector();

  ScopedResumeCollector(const ScopedResumeCollector&) = delete;
  ScopedResumeCollector& operator=(const ScopedResumeCollector&) = delete;

 private:
  ResumeCollector* previous_;
};

/// Pre-order registration of every kFixpointMember / kClosureMember node in
/// a plan. CSE-shared subtrees are visited once.
void RegisterResumeSites(const PlanNode& root, ResumeCollector& collector);

}  // namespace lcdb

#endif  // LCDB_CORE_RESUME_H_
