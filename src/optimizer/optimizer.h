#ifndef PRESTOCPP_OPTIMIZER_OPTIMIZER_H_
#define PRESTOCPP_OPTIMIZER_OPTIMIZER_H_

#include "common/status.h"
#include "metadata/metadata_resolver.h"
#include "plan/plan_node.h"

namespace presto {

/// Optimizer configuration.
struct OptimizerOptions {
  /// Join re-ordering and statistics-driven broadcast selection (§IV-C).
  /// Without it every join the connectors cannot co-locate is partitioned.
  bool enable_cbo = true;
};

/// Rule-based plan optimizer (§IV-C). Optimize() runs a fixed list of
/// passes, each once, in this order: constant folding, predicate pushdown
/// (including into connectors via the pushdown API), column pruning,
/// identity-project removal, the cost-based pass, and identity-project
/// removal again. The cost-based pass makes the paper's two decisions from
/// connector statistics: join re-ordering and join strategy
/// (broadcast/partitioned/co-located) selection. A pass constructs only the
/// node kinds it changes; every other node goes through MapChildren
/// (plan/plan_node.h), which rebuilds it with WithChildren when a child
/// changed and keeps it otherwise.
class Optimizer {
 public:
  /// Reads all table metadata through `resolver` — typically the query's
  /// MetadataSnapshot, so the optimizer sees the same versions the planner
  /// saw and its reads are recorded as plan dependencies.
  explicit Optimizer(MetadataResolver* resolver, OptimizerOptions options = {});

  Result<PlanNodePtr> Optimize(PlanNodePtr plan);

 private:
  OptimizerOptions options_;
  MetadataResolver* resolver_;
};

}  // namespace presto

#endif  // PRESTOCPP_OPTIMIZER_OPTIMIZER_H_
