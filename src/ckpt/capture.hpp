// Whole-machine snapshot capture (DESIGN.md §14).
//
// capture() walks a sys::Machine in canonical order — event domains,
// fault injector, network, then every node's bus/memory/processors/NIU/
// firmware, then the run's app runtime and reliable channels, if it has
// them — and collects each component's ckpt_save() output as a named
// Snapshot chunk. The walk order (and therefore the serialized byte
// stream) is a function of the machine's shape alone, never of host
// iteration order or thread count, so two captures of bit-identical
// machine states produce bit-identical snapshots.
//
// Captures are only meaningful at an epoch boundary: that is the one
// instant where every domain agrees on the time, the parallel scheduler
// has filed every outbox into its mailbox, and run_epochs_until() stops at
// identical boundaries for every threads= value. run_to_tick() drives the
// machine to the first boundary at or after a target tick.
#pragma once

#include <string>

#include "ckpt/snapshot.hpp"
#include "sim/types.hpp"

namespace sv::sys {
class Machine;
struct Run;
}  // namespace sv::sys

namespace sv::ckpt {

/// Capture the machine's architectural state into a Snapshot carrying
/// `config` (the text needed to rebuild the run) and the machine's current
/// time. `run` adds the workload's own state: the "app" chunk when it
/// runs an app::World, and one "n<i>.reliable" chunk per reliable
/// channel. Call only while no domain is executing (sequentially, or at
/// an epoch boundary) — the same rule as every aggregated stats view.
[[nodiscard]] Snapshot capture(sys::Machine& machine, std::string config,
                               const sys::Run* run = nullptr);

/// Drive the machine in whole epochs until now() >= target (or `deadline`
/// passes, or everything idles). Returns the boundary tick reached —
/// identical for every threads= value, and >= target on success.
sim::Tick run_to_tick(sys::Machine& machine, sim::Tick target,
                      sim::Tick deadline);

}  // namespace sv::ckpt
