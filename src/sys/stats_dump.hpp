// Aggregate every component's counters into one registry — the "system
// workload level" observability the paper argues a real platform enables
// (section 7). The registry prints itself (dump, dump_json).
#pragma once

#include "sim/stats.hpp"
#include "sys/machine.hpp"

namespace sv::sys {

/// Collect all counters of `machine` into a registry, keyed
/// "n<i>.<unit>.<metric>" plus machine-wide "net.*" entries.
[[nodiscard]] sim::StatRegistry collect_stats(Machine& machine);

}  // namespace sv::sys
