// Strategy registry: one table mapping every concrete strategy to its name,
// family and schedule builder.
//
// The registry is the single source of truth consumed by run_alltoall (to
// build the schedule the executor interprets), the selector (to score
// candidates under faults), tools/schedule_lint and the example explorers —
// adding a strategy means adding one entry here plus its builder.
#pragma once

#include <string>
#include <vector>

#include "src/coll/alltoall.hpp"
#include "src/coll/direct.hpp"
#include "src/coll/schedule.hpp"
#include "src/coll/tps.hpp"
#include "src/coll/vmesh.hpp"

namespace bgl::coll {

struct StrategyInfo {
  StrategyKind kind;
  const char* name;    // matches strategy_name(kind)
  bool direct_family;  // uses the direct-family tuning knobs (burst/order/...)
  const char* summary;
  CommSchedule (*build)(const net::NetworkConfig& net, std::uint64_t msg_bytes,
                        const AlltoallOptions& options, const net::FaultPlan* faults);
};

/// Every concrete strategy, in StrategyKind order (kBest excluded — it
/// resolves to one of these via the selector).
const std::vector<StrategyInfo>& strategy_registry();

/// nullptr when `kind` has no registry entry (kBest).
const StrategyInfo* find_strategy(StrategyKind kind);
/// Case-sensitive lookup by strategy_name(); nullptr when unknown.
const StrategyInfo* find_strategy(const std::string& name);

/// Builds `kind`'s schedule from the options. `kind` must be a registry
/// entry (not kBest).
CommSchedule build_schedule(StrategyKind kind, const net::NetworkConfig& net,
                            std::uint64_t msg_bytes, const AlltoallOptions& options,
                            const net::FaultPlan* faults);

}  // namespace bgl::coll
