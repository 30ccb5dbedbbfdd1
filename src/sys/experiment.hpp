// Experiment harness helper: drive a kernel until a predicate holds.
#pragma once

#include <functional>

#include "sys/machine.hpp"

namespace sv::sys {

/// Run the kernel until `pred()` holds or `deadline` passes. Returns true
/// if the predicate was satisfied. (The machine's service loops never
/// terminate, so the event queue never drains — completion is always
/// predicate-based.)
bool run_until(sim::Kernel& kernel, const std::function<bool()>& pred,
               sim::Tick deadline);

}  // namespace sv::sys
