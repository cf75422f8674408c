// Regenerates the stored goldens under tests/golden/:
//
//   ./equivalence_golden > ../tests/golden/schedule_equivalence.txt
//   ./equivalence_golden reliability > ../tests/golden/reliability_equivalence.txt
//
// schedule: the pinned per-case metrics of the 34-run equivalence suite
// (17 cases x fault-free/faulted), captured from the build in which the
// legacy per-strategy clients were bit-identical to the schedule-IR
// executor. Format: one space-separated record per line,
//   name variant elapsed events packets payload unreachable pairs_complete
//   reachable_complete links_mean matrix_fnv reachable_fnv
//
// reliability: every counter of the end-to-end reliability layer and the
// fault subsystem on the reliability cases (tests/reliability_cases.hpp) at
// 1 and 4 slab threads; one "name threads <rel_record>" line per run.
//
// Rerun this only when an intentional behavior change re-pins a suite (and
// say so in the commit).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/coll/alltoall.hpp"
#include "tests/equivalence_cases.hpp"
#include "tests/reliability_cases.hpp"

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

int print_reliability_golden() {
  std::printf("# reliability-equivalence golden: %zu cases x {1,4} slab threads\n",
              std::size(kRelCases));
  std::printf(
      "# name threads elapsed events packets payload pairs_complete "
      "reachable_complete unreachable abandoned epochs data_sequenced "
      "retransmits gave_up acks_standalone acks_piggybacked duplicates_dropped "
      "corrupt_rejected dropped_in_flight dropped_prob dropped_stuck "
      "corrupted_payloads unroutable_at_injection reroute_vetoes "
      "transient_strikes link_down_cycles stranded_relay_bytes matrix_fnv "
      "reachable_fnv\n");
  for (const RelCase& c : kRelCases) {
    for (const int threads : kRelThreads) {
      AlltoallOptions options = rel_options(c, threads);
      DeliveryMatrix matrix(static_cast<std::int32_t>(options.net.shape.nodes()));
      options.deliveries = &matrix;
      const RunResult result = run_alltoall(c.kind, options);
      if (!result.drained) {
        std::fprintf(stderr, "case %s at %d threads did not drain\n", c.name, threads);
        return 1;
      }
      std::printf("%s %d %s\n", c.name, threads, rel_record(result, matrix).c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && std::strcmp(argv[1], "schedule") != 0 &&
                   std::strcmp(argv[1], "reliability") != 0)) {
    std::fprintf(stderr, "usage: %s [schedule|reliability]\n", argv[0]);
    return 2;
  }
  if (argc == 2 && std::strcmp(argv[1], "reliability") == 0) {
    return print_reliability_golden();
  }
  return print_schedule_golden();
}
