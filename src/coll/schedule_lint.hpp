// Static schedule validation — no simulation required.
//
// schedule_lint() checks a CommSchedule against the invariants every
// correct schedule must satisfy:
//
//   structure    phase/FIFO-class/op indices well-formed, barrier metadata
//                consistent, ordered streams long enough for their message;
//   fifo-budget  classes inside the hardware FIFO range, reserved classes
//                pairwise disjoint;
//   coverage     every pair the schedule claims to cover is carried by
//                exactly one logical transfer (and uncovered pairs by none);
//   relay        under a fault plan, every relay is alive and both legs of
//                every relayed transfer are routable.
//
// The checks run on the same for_each_transfer enumeration the CSV/JSON
// dumps use, so a passing lint certifies the dump, the executor's stream and
// the coverage mask agree. Cost is O(P^2) pair state — lint shapes, not the
// 20k-node partitions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/coll/schedule.hpp"

namespace bgl::coll {

struct LintIssue {
  std::string check;    // "structure", "fifo-budget", "coverage", "relay"
  std::string message;  // human-readable description
};

struct LintReport {
  std::vector<LintIssue> issues;
  std::int64_t transfers = 0;       // enumerated logical transfers
  std::uint64_t covered_pairs = 0;  // ordered pairs the schedule carries

  bool ok() const { return issues.empty(); }
  /// One line per issue ("check: message"), or "ok" when clean.
  std::string to_string() const;
};

/// Validates `sched` under `faults` (nullptr = fault-free). Never simulates.
LintReport schedule_lint(const CommSchedule& sched,
                         const net::FaultPlan* faults = nullptr);

}  // namespace bgl::coll
