#ifndef PRESTOCPP_METADATA_METADATA_SNAPSHOT_H_
#define PRESTOCPP_METADATA_METADATA_SNAPSHOT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metadata/metadata_cache.h"
#include "metadata/metadata_resolver.h"
#include "metadata/plan_cache.h"

namespace presto {

/// Per-query metadata view (ISSUE 8). Fixes the duplicate-lookup bug:
/// `Connector::GetTable` used to be re-invoked for every reference to the
/// same table within one query (self-joins, subqueries), so two references
/// could observe *different* versions of a concurrently mutating table.
/// The snapshot memoizes the first resolution, giving the whole planning
/// session one consistent bundle per table, and records every (catalog,
/// table, version) it read — the dependency set a cached plan is validated
/// against.
///
/// With a MetadataCache attached, resolution goes through it; without one
/// (as Planner's compatibility constructor and tests build it) the snapshot
/// fetches directly but still memoizes and records dependencies.
///
/// Not thread-safe: one snapshot serves one planning session on one
/// thread, then dies (or donates deps() to the plan cache).
class MetadataSnapshot final : public MetadataResolver {
 public:
  explicit MetadataSnapshot(const Catalog* catalog,
                            MetadataCache* cache = nullptr)
      : catalog_(catalog), cache_(cache) {}

  const Catalog* catalog() const override { return catalog_; }

  Result<const ResolvedTable*> Resolve(const std::string& catalog_name,
                                       const std::string& table) override;

  PushdownSupport GetPushdownSupport(const std::string& catalog_name,
                                     const TableHandle& table,
                                     const ColumnPredicate& pred) override;

  /// Every distinct table this snapshot resolved, with the version it was
  /// resolved at — the cached plan's dependency set.
  const std::vector<PlanDependency>& deps() const { return deps_; }

  /// Cross-query cache hits / total resolutions within this snapshot
  /// (memoized repeats are neither).
  int64_t cache_hits() const { return cache_hits_; }
  int64_t resolutions() const { return resolutions_; }

 private:
  const Catalog* catalog_;
  MetadataCache* cache_;  // nullable: direct (uncached) resolution
  // Key "catalog\0table" -> memoized bundle; pointers handed out point at
  // the map values, stable because std::map never relocates nodes.
  std::map<std::string, ResolvedTable> memo_;
  std::vector<PlanDependency> deps_;
  int64_t cache_hits_ = 0;
  int64_t resolutions_ = 0;
};

}  // namespace presto

#endif  // PRESTOCPP_METADATA_METADATA_SNAPSHOT_H_
