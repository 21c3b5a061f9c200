#include "core/resume.h"

#include <set>

#include "plan/plan_ir.h"

namespace lcdb {

namespace {
thread_local ResumeCollector* g_current_collector = nullptr;
}  // namespace

ResumeCollector* CurrentResumeCollectorOrNull() { return g_current_collector; }

ScopedResumeCollector::ScopedResumeCollector(ResumeCollector& collector)
    : previous_(g_current_collector) {
  g_current_collector = &collector;
}

ScopedResumeCollector::~ScopedResumeCollector() {
  g_current_collector = previous_;
}

namespace {
void RegisterPlanSites(const PlanNode& node,
                       std::set<const PlanNode*>* visited,
                       ResumeCollector& collector) {
  if (!visited->insert(&node).second) return;  // CSE-shared subtree
  if (node.op == PlanOp::kFixpointMember || node.op == PlanOp::kClosureMember) {
    collector.RegisterSite(&node);
  }
  for (const auto& child : node.children) {
    if (child != nullptr) RegisterPlanSites(*child, visited, collector);
  }
}
}  // namespace

void RegisterResumeSites(const PlanNode& root, ResumeCollector& collector) {
  std::set<const PlanNode*> visited;
  RegisterPlanSites(root, &visited, collector);
}

}  // namespace lcdb
