// Timeline tracing: typed events in a bounded in-memory ring buffer.
//
// A Tracer records duration spans, instant markers and counter samples
// against named tracks. A track is one swim-lane in the exported timeline
// and maps onto a (process, thread) pair in the Chrome trace-event format:
// the process is the node ("n0", "n1", "net") and the thread is the
// hardware unit within it ("bus", "aP", "NIU.TxU", ...). Spans may carry a
// flow id linking a message's send, route and deliver hops into one arrow
// chain across lanes.
//
// Cost model: when no Tracer is attached to the Kernel the instrumentation
// sites are a single pointer null-check — no string formatting, no
// allocation. When the ring is full the oldest events are overwritten. A
// ChromeWriter that drains the rings at every epoch barrier needs them to
// hold one epoch of events only, so the written timeline is complete.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace sv::trace {

using TrackId = std::uint16_t;
inline constexpr TrackId kNoTrack = 0xFFFF;

enum class EventKind : std::uint8_t {
  kSpan,     // [ts, ts+dur) duration on a track
  kInstant,  // point marker
  kCounter,  // sampled value of a counter track
};

struct TrackInfo {
  std::string process;   // swim-lane group, e.g. "n0"
  std::string name;      // lane label within the group, e.g. "NIU.TxU"
  std::string category;  // "bus" | "cpu" | "niu" | "queue" | "link" | ...
  bool counter = false;
};

struct Event {
  EventKind kind = EventKind::kInstant;
  TrackId track = kNoTrack;
  sim::Tick ts = 0;
  sim::Tick dur = 0;        // spans only
  double value = 0.0;       // counters only
  std::uint64_t flow = 0;   // 0 = not part of a flow
  std::string name;
};

class Tracer;

/// Receives every event a Tracer records, at record time, before it enters
/// the ring: for consumers that tally events as they happen. The tracer
/// reference gives the sink access to the track table for the event's
/// lane names.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Tracer& tracer, const Event& e) = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Register (or look up) the track for (process, name). Instrumentation
  /// sites call this once and cache the returned id.
  TrackId track(std::string_view process, std::string_view name,
                std::string_view category, bool counter = false);

  /// Derive the track from a dotted SimObject name: "n0.NIU.TxU" becomes
  /// process "n0", lane "NIU.TxU".
  TrackId track_for(std::string_view object_name, std::string_view category,
                    bool counter = false);

  /// Fresh nonzero flow id for linking spans across tracks.
  std::uint64_t next_flow() { return ++flow_seq_; }

  void span(TrackId t, std::string name, sim::Tick start, sim::Tick end,
            std::uint64_t flow = 0);
  void instant(TrackId t, std::string name, sim::Tick ts,
               std::uint64_t flow = 0);
  void counter(TrackId t, sim::Tick ts, double value);

  [[nodiscard]] const std::vector<TrackInfo>& tracks() const {
    return tracks_;
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return recorded_ - ring_.size();
  }

  /// Visit events oldest to newest.
  template <typename F>
  void for_each(F&& fn) const {
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
      fn(ring_[(head_ + i) % n]);
    }
  }

  void clear();

  /// Attach (or detach, with nullptr) a streaming sink. The sink sees
  /// every subsequent event in record order, before it enters the ring;
  /// it must outlive the attachment.
  void set_sink(TraceSink* sink) { sink_ = sink; }
  [[nodiscard]] TraceSink* sink() const { return sink_; }

 private:
  void push(Event e);

  TraceSink* sink_ = nullptr;
  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // oldest event once the ring has wrapped
  std::uint64_t recorded_ = 0;
  std::uint64_t flow_seq_ = 0;
  std::vector<TrackInfo> tracks_;
  std::map<std::string, TrackId, std::less<>> by_key_;
};

/// One held event and the lane it was recorded on.
struct EventRef {
  const Event* event;
  const TrackInfo* track;
  std::uint32_t source;  // index of the event's tracer in the merged list
};

/// The events several per-domain Tracers hold, as one canonical timeline:
/// ordered by (ts, process, lane), each lane's events in record order.
/// Canonical means independent of how the machine was partitioned: every
/// lane is recorded by one domain, so two runs that record the same
/// per-lane event sequences merge to the same order, however many tracers
/// the events were spread across. The references are valid until a
/// tracer records, registers a track or is cleared.
std::vector<EventRef> merge_traces(const std::vector<Tracer*>& tracers);

/// Plain-text rendering of the merged timeline, one line per event — the
/// artifact the parallel-equivalence tests compare across thread counts.
std::string canonical_span_dump(const std::vector<Tracer*>& tracers);

}  // namespace sv::trace
