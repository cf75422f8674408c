// Regenerates the stored goldens under tests/golden/:
//
//   ./equivalence_golden > ../tests/golden/schedule_equivalence.txt
//   ./equivalence_golden repair > ../tests/golden/repair_equivalence.txt
//   ./equivalence_golden many_to_many > ../tests/golden/many_to_many_equivalence.txt
//   ./equivalence_golden observer > ../tests/golden/observer_replay_order.txt
//
// schedule: the pinned per-case metrics of the 34-run equivalence suite
// (17 cases x fault-free/faulted), captured from the build in which the
// legacy per-strategy clients were bit-identical to the schedule-IR
// executor. Format: one space-separated record per line,
//   name variant elapsed events packets payload unreachable pairs_complete
//   reachable_complete links_mean matrix_fnv reachable_fnv
//
// repair: the epoch and repair counters and every fault counter of the
// repair cases (tests/repair_cases.hpp) at 1 and 4 slab threads; one
// "name threads <repair_record>" line per run.
//
// many_to_many: elapsed, events, packets, payload, mean link utilization and
// the delivery-matrix FNV of the pattern cases (tests/many_to_many_cases.hpp),
// captured from the hand-written SparseClient transport that pattern
// schedules replaced.
//
// observer: the grant count and the FNV-1a order hash of every hop-observer
// call on the multi-slab observer cases (tests/observer_cases.hpp), where
// grants are replayed from per-slab buffers in (tick, link id) order.
//
// Rerun this only when an intentional behavior change re-pins a suite (and
// say so in the commit).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/coll/alltoall.hpp"
#include "tests/equivalence_cases.hpp"
#include "tests/many_to_many_cases.hpp"
#include "tests/observer_cases.hpp"
#include "tests/repair_cases.hpp"

namespace {

using namespace bgl::coll;

int print_schedule_golden() {
  std::printf("# schedule-equivalence golden: 17 cases x {fault_free,faulted}\n");
  std::printf(
      "# name variant elapsed events packets payload unreachable "
      "pairs_complete reachable_complete links_mean matrix_fnv reachable_fnv\n");
  for (const EquivCase& c : kEquivCases) {
    for (const bool faulted : {false, true}) {
      AlltoallOptions options = equiv_options(c, faulted);
      const auto nodes = static_cast<std::int32_t>(options.net.shape.nodes());
      DeliveryMatrix matrix(nodes);
      options.deliveries = &matrix;
      const RunResult result = run_alltoall(c.kind, options);
      if (!result.drained) {
        std::fprintf(stderr, "case %s did not drain\n", c.name);
        return 1;
      }
      std::printf("%s %s %llu %llu %llu %llu %llu %llu %d %.17g %llx %llx\n",
                  c.name, faulted ? "faulted" : "fault_free",
                  static_cast<unsigned long long>(result.elapsed_cycles),
                  static_cast<unsigned long long>(result.events),
                  static_cast<unsigned long long>(result.packets_delivered),
                  static_cast<unsigned long long>(result.payload_bytes),
                  static_cast<unsigned long long>(result.unreachable_pairs),
                  static_cast<unsigned long long>(result.pairs_complete),
                  result.reachable_complete ? 1 : 0, result.links.overall_mean,
                  static_cast<unsigned long long>(equiv_matrix_fnv(matrix)),
                  static_cast<unsigned long long>(
                      equiv_reachable_fnv(result.reachable, nodes)));
    }
  }
  return 0;
}

int print_repair_golden() {
  std::printf("# repair-equivalence golden: %zu cases x {1,4} slab threads\n",
              std::size(kRepairCases));
  std::printf(
      "# name threads elapsed events packets payload pairs_complete "
      "reachable_complete unreachable abandoned epochs residual_pairs "
      "recovered_bytes replan_cycles retransmits corrupt_rejected "
      "dropped_in_flight dropped_prob dropped_stuck corrupted_payloads "
      "unroutable_at_injection reroute_vetoes transient_strikes "
      "link_down_cycles stranded_relay_bytes matrix_fnv reachable_fnv\n");
  for (const RepairCase& c : kRepairCases) {
    for (const int threads : kRepairThreads) {
      AlltoallOptions options = repair_options(c, threads);
      DeliveryMatrix matrix(static_cast<std::int32_t>(options.net.shape.nodes()));
      options.deliveries = &matrix;
      const RunResult result = run_alltoall(c.kind, options);
      if (!result.drained) {
        std::fprintf(stderr, "case %s at %d threads did not drain\n", c.name, threads);
        return 1;
      }
      std::printf("%s %d %s\n", c.name, threads, repair_record(result, matrix).c_str());
    }
  }
  return 0;
}

int print_many_to_many_golden() {
  std::printf("# many-to-many equivalence golden: %zu pattern cases\n",
              std::size(kM2MCases));
  std::printf("# name elapsed events packets payload links_mean matrix_fnv\n");
  for (const M2MCase& c : kM2MCases) {
    const M2MRecord record = run_m2m_case(c);
    if (!record.drained) {
      std::fprintf(stderr, "case %s did not drain\n", c.name);
      return 1;
    }
    std::printf("%s %s\n", c.name, record.to_string().c_str());
  }
  return 0;
}

int print_observer_golden() {
  std::printf("# observer replay-order golden: %zu multi-slab cases\n",
              std::size(kObserverCases));
  std::printf("# name grants order_fnv\n");
  for (const ObserverCase& c : kObserverCases) {
    const ObserverRecord record = run_observer_case(c);
    if (!record.drained || !record.reachable_complete) {
      std::fprintf(stderr, "case %s did not drain and deliver\n", c.name);
      return 1;
    }
    std::printf("%s %s\n", c.name, record.to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && std::strcmp(argv[1], "schedule") != 0 &&
                   std::strcmp(argv[1], "repair") != 0 &&
                   std::strcmp(argv[1], "many_to_many") != 0 &&
                   std::strcmp(argv[1], "observer") != 0)) {
    std::fprintf(stderr, "usage: %s [schedule|repair|many_to_many|observer]\n",
                 argv[0]);
    return 2;
  }
  if (argc == 2 && std::strcmp(argv[1], "repair") == 0) return print_repair_golden();
  if (argc == 2 && std::strcmp(argv[1], "many_to_many") == 0) {
    return print_many_to_many_golden();
  }
  if (argc == 2 && std::strcmp(argv[1], "observer") == 0) return print_observer_golden();
  return print_schedule_golden();
}
