// Writes Tracer rings as Chrome trace-event JSON, the format Perfetto and
// chrome://tracing load directly.
//
// Mapping: each track process ("n0", "n1", "net") becomes a pid and each
// lane within it a tid, so the viewer groups hardware units under their
// node. Spans become "X" complete events, instants "i", counter tracks "C",
// and flows "s"/"t"/"f" arrow chains bound to the spans that share a flow
// id. Timestamps are microseconds (ticks are picoseconds, so 1 tick =
// 1e-6 us and full precision survives).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "trace/trace.hpp"

namespace sv::trace {

/// The Chrome JSON writer, fed in batches: each drain() writes every event
/// the tracers hold, in merge_traces' canonical order, and empties their
/// rings. Drained at every epoch barrier, as svsim does, a run of any
/// length costs one epoch of ring memory, loses nothing to overwrites, and
/// writes the same file at every thread count.
///
/// A lane's process and thread names are written when it first carries an
/// event, and otherData comes last, once its counts are known. Flow arrows
/// need every hop of a flow before the s/t/f phases can be assigned, so
/// pending flows are the one retained state; past kMaxPendingFlows the
/// oldest flow's chain is written as-is, and later hops of that flow start
/// a new chain.
class ChromeWriter {
 public:
  static constexpr std::size_t kMaxPendingFlows = std::size_t{1} << 16;

  /// `os` must outlive the writer. The JSON header is written immediately.
  explicit ChromeWriter(std::ostream& os);

  /// Write every event `tracers` hold and clear them. Pass the same
  /// tracers, in the same order, to every drain.
  void drain(const std::vector<Tracer*>& tracers);

  /// Write the pending flow arrows and close the document. Call once,
  /// after the last drain.
  void finish(sim::Tick sim_now);

  [[nodiscard]] std::uint64_t events_written() const {
    return events_written_;
  }
  /// Events a ring overwrote before a drain reached them.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Flows written early because the pending table hit its bound.
  [[nodiscard]] std::uint64_t flows_evicted() const { return flows_evicted_; }

 private:
  struct TrackAddr {
    int pid = 0;
    int tid = 0;
  };
  struct FlowHop {
    sim::Tick ts;
    int pid;
    int tid;
  };

  /// The lane's (pid, tid), naming it on first use.
  const TrackAddr& lane(const EventRef& r);
  std::ostream& sep();
  void write_flow(std::uint64_t id, std::vector<FlowHop>& hops);

  std::ostream& os_;
  bool first_ = true;
  std::map<std::string, int> pids_;
  std::map<int, int> next_tid_;
  std::vector<std::vector<TrackAddr>> lanes_;  // [source][track]; pid 0: unnamed
  std::map<std::uint64_t, std::vector<FlowHop>> flows_;
  std::uint64_t events_written_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t flows_evicted_ = 0;
};

}  // namespace sv::trace
