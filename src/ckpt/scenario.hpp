// The snapshot config format, and the explorer's scenario (DESIGN.md §14).
//
// A snapshot's config text is the run it came from: `workload=NAME` for a
// registry entry (sys/workload.hpp), then every key of the machine table
// and of the workload's table at its effective value (as given, else its
// default; a key whose default is empty is written only when given, as
// its absence is a value of its own), then the run keys given except
// ckpt.*. svsim writes it and svsim and svexplore read it, checked
// against the tables svsim checks its command line against, so a default
// changed later cannot silently fork a restore.
//
// The explorer's scenario runs such a config under a scripted drop
// pattern (fault::Plan::drop_script). A run violates its contract if it
// reports a failure (a wrong, reordered or duplicated payload) or if it
// is stuck at its deadline with no reliable channel having given up; a
// give-up is the contract's declared-failure outcome. Resumed from a
// snapshot, every run first replays to its tick and byte-verifies, and a
// pattern's indices count from the drop opportunities seen by then, so
// only placements after the checkpoint are searched.
#pragma once

#include <string>
#include <vector>

#include "ckpt/explore.hpp"
#include "ckpt/snapshot.hpp"
#include "sim/config.hpp"

namespace sv::ckpt {

/// One run's configuration: a registry workload and its key=value args.
struct RunConfig {
  std::string workload;
  sim::Config cfg;
};

/// `workload` run with key=value `args`, checked against the machine,
/// run and workload tables. Throws std::invalid_argument, one line naming
/// the key, on an unknown workload or key or a malformed or out-of-range
/// value.
[[nodiscard]] RunConfig run_config(const std::string& workload,
                                   const std::vector<std::string>& args);

/// The config text a snapshot of `run` embeds (the format above).
[[nodiscard]] std::string snapshot_config(const RunConfig& run);

/// The run a snapshot's config text describes, checked as run_config
/// checks it. A config holding only some keys (as svsim wrote them before
/// the whole schema was embedded) reads the same way, the rest at their
/// defaults.
[[nodiscard]] RunConfig snapshot_args(const Snapshot& snap);

/// The explorer's scenario: `run`'s workload on a machine built by
/// sys::machine_params(run.cfg) in scripted drop mode, each call dropping
/// the opportunities its pattern names, until the run finishes or its
/// deadline_ms passes. Throws std::invalid_argument naming
/// fault.drop_script if `run` sets a non-empty script.
[[nodiscard]] ScenarioFn drop_scenario(RunConfig run);

/// The same resumed from `snap`'s tick. One replay here learns the
/// opportunity base, and each call replays and byte-verifies (Error on
/// divergence). Throws std::invalid_argument naming fault.drop_script
/// unless the snapshot was written with an empty one: only then does its
/// run count drop opportunities and drop none.
[[nodiscard]] ScenarioFn drop_scenario(const Snapshot& snap);

}  // namespace sv::ckpt
