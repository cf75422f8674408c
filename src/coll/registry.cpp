#include "src/coll/registry.hpp"

#include <stdexcept>

namespace bgl::coll {

namespace {

DirectTuning direct_tuning_for(StrategyKind kind, const AlltoallOptions& options) {
  DirectTuning t;
  switch (kind) {
    case StrategyKind::kMpi:
      t = DirectTuning::mpi();
      t.burst = options.burst > 0 ? options.burst : t.burst;
      break;
    case StrategyKind::kAdaptiveRandom:
      t = DirectTuning::ar();
      t.burst = options.burst;
      break;
    case StrategyKind::kDeterministic:
      t = DirectTuning::dr();
      t.burst = options.burst;
      break;
    case StrategyKind::kThrottled:
      t = DirectTuning::throttled(options.throttle);
      t.burst = options.burst;
      break;
    default:
      throw std::invalid_argument("not a direct-family strategy");
  }
  t.order = options.order;
  return t;
}

TpsTuning tps_tuning_for(const AlltoallOptions& options) {
  TpsTuning t;
  t.linear_axis = options.linear_axis;
  t.forward_cpu_cycles = options.forward_cpu_cycles;
  t.reserved_fifos = options.reserved_fifos;
  t.credit_window = options.credit_window;
  t.credit_batch = options.credit_batch;
  return t;
}

VmeshTuning vmesh_tuning_for(const AlltoallOptions& options) {
  VmeshTuning t;
  t.pvx = options.pvx;
  t.pvy = options.pvy;
  t.mapping = static_cast<MeshMapping>(options.vmesh_mapping);
  return t;
}

template <StrategyKind Kind>
CommSchedule build_direct_entry(const net::NetworkConfig& net, std::uint64_t msg_bytes,
                                const AlltoallOptions& options,
                                const net::FaultPlan* /*faults*/) {
  return build_direct_schedule(net, msg_bytes, direct_tuning_for(Kind, options));
}

CommSchedule build_tps_entry(const net::NetworkConfig& net, std::uint64_t msg_bytes,
                             const AlltoallOptions& options,
                             const net::FaultPlan* /*faults*/) {
  return build_tps_schedule(net, msg_bytes, tps_tuning_for(options));
}

CommSchedule build_vmesh_entry(const net::NetworkConfig& net, std::uint64_t msg_bytes,
                               const AlltoallOptions& options,
                               const net::FaultPlan* faults) {
  return build_vmesh_schedule(net, msg_bytes, vmesh_tuning_for(options), faults);
}

}  // namespace

const std::vector<StrategyInfo>& strategy_registry() {
  static const std::vector<StrategyInfo> kRegistry = {
      {StrategyKind::kMpi, "MPI", true,
       "message-object baseline: larger alpha, per-packet cost, burst 2",
       &build_direct_entry<StrategyKind::kMpi>},
      {StrategyKind::kAdaptiveRandom, "AR", true,
       "randomized direct sends on adaptive routing (paper Section 3)",
       &build_direct_entry<StrategyKind::kAdaptiveRandom>},
      {StrategyKind::kDeterministic, "DR", true,
       "randomized direct sends on the deterministic bubble VC",
       &build_direct_entry<StrategyKind::kDeterministic>},
      {StrategyKind::kThrottled, "AR+throttle", true,
       "direct AR paced to the Eq. 2 bisection rate",
       &build_direct_entry<StrategyKind::kThrottled>},
      {StrategyKind::kTwoPhase, "TPS", false,
       "linear phase + planar phase with reserved FIFOs (paper Section 4.1)",
       &build_tps_entry},
      {StrategyKind::kVirtualMesh, "VMesh", false,
       "2-D virtual mesh message combining (paper Section 4.2)",
       &build_vmesh_entry},
  };
  return kRegistry;
}

const StrategyInfo* find_strategy(StrategyKind kind) {
  for (const StrategyInfo& info : strategy_registry()) {
    if (info.kind == kind) return &info;
  }
  return nullptr;
}

const StrategyInfo* find_strategy(const std::string& name) {
  for (const StrategyInfo& info : strategy_registry()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

CommSchedule build_schedule(StrategyKind kind, const net::NetworkConfig& net,
                            std::uint64_t msg_bytes, const AlltoallOptions& options,
                            const net::FaultPlan* faults) {
  const StrategyInfo* info = find_strategy(kind);
  if (info == nullptr) {
    throw std::invalid_argument("no schedule builder for strategy " +
                                strategy_name(kind));
  }
  return info->build(net, msg_bytes, options, faults);
}

}  // namespace bgl::coll
