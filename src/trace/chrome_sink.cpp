#include "trace/chrome_sink.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <vector>

#include "trace/json.hpp"

namespace sv::trace {

namespace {

/// Picoseconds -> microseconds with full precision (1 ps = 1e-6 us).
std::string us(sim::Tick t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                static_cast<std::uint64_t>(t) / 1000000,
                static_cast<std::uint64_t>(t) % 1000000);
  return buf;
}

std::string fmt_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A flow id as a JSON string. NIU flow ids set bit 62, and Perfetto and
/// Chrome read numbers as doubles, which are 1024 apart at that size:
/// unquoted, up to 1024 successive flows of one node would merge into one
/// arrow. svtrace reads either form exactly.
std::string flow_id(std::uint64_t id) {
  return "\"" + std::to_string(id) + "\"";
}

struct TrackAddr {
  int pid = 0;
  int tid = 0;
};

/// One event record, exactly as the batch writer has always formatted it.
/// Shared with the streaming sink so both emit byte-identical records.
void emit_record(std::ostream& os, const TrackInfo& t, int pid, int tid,
                 const Event& e) {
  switch (e.kind) {
    case EventKind::kSpan:
      os << "{\"ph\":\"X\",\"name\":\"" << json_escape(e.name)
         << "\",\"cat\":\"" << json_escape(t.category) << "\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"ts\":" << us(e.ts)
         << ",\"dur\":" << us(e.dur);
      if (e.flow != 0) {
        os << ",\"args\":{\"flow\":" << flow_id(e.flow) << "}";
      }
      os << "}";
      break;
    case EventKind::kInstant:
      os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" << json_escape(e.name)
         << "\",\"cat\":\"" << json_escape(t.category) << "\",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"ts\":" << us(e.ts) << "}";
      break;
    case EventKind::kCounter:
      os << "{\"ph\":\"C\",\"name\":\"" << json_escape(t.name)
         << "\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"ts\":" << us(e.ts) << ",\"args\":{\"value\":"
         << fmt_value(e.value) << "}}";
      break;
  }
}

/// Emit one flow's s/t/f arrow chain (hops sorted by start time). Shared
/// by batch and streaming emitters; Hop is any (ts, pid, tid) struct.
template <typename Hop, typename Sep>
void emit_flow_chain(Sep&& sep, std::ostream& os, std::uint64_t id,
                     std::vector<Hop>& hops) {
  if (hops.size() < 2) {
    return;
  }
  std::stable_sort(hops.begin(), hops.end(), [](const Hop& a, const Hop& b) {
    return a.ts < b.ts;
  });
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const char* ph = i == 0 ? "s" : (i + 1 == hops.size() ? "f" : "t");
    sep() << "{\"ph\":\"" << ph << "\",\"cat\":\"flow\",\"name\":\"msg\""
          << ",\"id\":" << flow_id(id) << ",\"pid\":" << hops[i].pid
          << ",\"tid\":" << hops[i].tid << ",\"ts\":" << us(hops[i].ts);
    if (*ph == 'f') {
      os << ",\"bp\":\"e\"";
    }
    os << "}";
  }
}

/// Emission core shared by the single- and multi-tracer entry points:
/// `tracks` names the lanes, `for_each_event` visits events in output
/// order with tracks already indexed into `tracks`.
template <typename ForEach>
void emit_chrome_trace(const std::vector<TrackInfo>& tracks,
                       ForEach&& for_each_event, std::uint64_t recorded,
                       std::uint64_t dropped, std::ostream& os,
                       const ChromeWriteOptions& options) {
  // Assign pids per process (in registration order) and tids per lane.
  std::map<std::string, int> pids;
  std::vector<TrackAddr> addr(tracks.size());
  std::map<int, int> next_tid;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const TrackInfo& t = tracks[i];
    auto [it, fresh] = pids.emplace(t.process, static_cast<int>(pids.size()) + 1);
    (void)fresh;
    addr[i].pid = it->second;
    addr[i].tid = ++next_tid[it->second];
  }

  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
     << "\"sim_now_ps\":" << options.sim_now
     << ",\"recorded\":" << recorded
     << ",\"dropped\":" << dropped << "},\"traceEvents\":[\n";

  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    if (!first) {
      os << ",\n";
    }
    first = false;
    return os;
  };

  // Metadata: name every process and lane, even lanes with no events (the
  // full machine layout stays visible in the viewer).
  for (const auto& [process, pid] : pids) {
    sep() << "{\"ph\":\"M\",\"pid\":" << pid
          << ",\"name\":\"process_name\",\"args\":{\"name\":\""
          << json_escape(process) << "\"}}";
  }
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const TrackInfo& t = tracks[i];
    sep() << "{\"ph\":\"M\",\"pid\":" << addr[i].pid
          << ",\"tid\":" << addr[i].tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
          << json_escape(t.name) << "\"}}";
  }

  // A flow arrow chain needs every span that carries the flow id, sorted
  // by start time: first hop emits "s", later hops "t", final hop "f".
  struct FlowHop {
    sim::Tick ts;
    int pid;
    int tid;
  };
  std::map<std::uint64_t, std::vector<FlowHop>> flows;

  for_each_event([&](const Event& e) {
    const TrackAddr& a = addr[e.track];
    emit_record(sep(), tracks[e.track], a.pid, a.tid, e);
    if (e.kind == EventKind::kSpan && e.flow != 0) {
      flows[e.flow].push_back(FlowHop{e.ts, a.pid, a.tid});
    }
  });

  for (auto& [id, hops] : flows) {
    emit_flow_chain(sep, os, id, hops);
  }

  os << "\n]}\n";
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& os,
                        const ChromeWriteOptions& options) {
  emit_chrome_trace(
      tracer.tracks(),
      [&](auto&& fn) { tracer.for_each(fn); },
      tracer.recorded(), tracer.dropped(), os, options);
}

void write_chrome_trace(const std::vector<const Tracer*>& tracers,
                        std::ostream& os, const ChromeWriteOptions& options) {
  const MergedTrace merged = merge_traces(tracers);
  emit_chrome_trace(
      merged.tracks,
      [&](auto&& fn) {
        for (const Event& e : merged.events) {
          fn(e);
        }
      },
      merged.recorded, merged.dropped, os, options);
}

ChromeStreamSink::ChromeStreamSink(std::ostream& os, Options options)
    : os_(os), options_(options) {
  // otherData comes at the end for a stream: its counts are only known
  // once the last event has been written.
  os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
}

std::ostream& ChromeStreamSink::sep() {
  if (!first_) {
    os_ << ",\n";
  }
  first_ = false;
  return os_;
}

const ChromeStreamSink::TrackAddr& ChromeStreamSink::ensure_track(
    const Tracer& tracer, TrackId id) {
  if (id >= addr_.size()) {
    addr_.resize(tracer.tracks().size());
  }
  TrackAddr& a = addr_[id];
  if (a.pid == 0) {
    const TrackInfo& t = tracer.tracks()[id];
    auto [it, fresh] =
        pids_.emplace(t.process, static_cast<int>(pids_.size()) + 1);
    if (fresh) {
      sep() << "{\"ph\":\"M\",\"pid\":" << it->second
            << ",\"name\":\"process_name\",\"args\":{\"name\":\""
            << json_escape(t.process) << "\"}}";
    }
    a.pid = it->second;
    a.tid = ++next_tid_[a.pid];
    sep() << "{\"ph\":\"M\",\"pid\":" << a.pid << ",\"tid\":" << a.tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
          << json_escape(t.name) << "\"}}";
  }
  return a;
}

void ChromeStreamSink::on_event(const Tracer& tracer, const Event& e) {
  const TrackAddr& a = ensure_track(tracer, e.track);
  emit_record(sep(), tracer.tracks()[e.track], a.pid, a.tid, e);
  ++events_written_;
  if (e.kind == EventKind::kSpan && e.flow != 0) {
    flows_[e.flow].push_back(FlowHop{e.ts, a.pid, a.tid});
    if (flows_.size() > options_.max_pending_flows) {
      // Oldest flow (lowest id: next_flow() is monotone) flushes as-is.
      auto oldest = flows_.begin();
      flush_flow(oldest->first, oldest->second);
      flows_.erase(oldest);
      ++flows_evicted_;
    }
  }
}

void ChromeStreamSink::flush_flow(std::uint64_t id,
                                  const std::vector<FlowHop>& hops) {
  std::vector<FlowHop> copy = hops;
  emit_flow_chain([this]() -> std::ostream& { return sep(); }, os_, id, copy);
}

void ChromeStreamSink::finish(sim::Tick sim_now) {
  if (finished_) {
    return;
  }
  finished_ = true;
  for (const auto& [id, hops] : flows_) {
    flush_flow(id, hops);
  }
  flows_.clear();
  os_ << "\n],\"otherData\":{\"sim_now_ps\":" << sim_now
      << ",\"recorded\":" << events_written_
      << ",\"dropped\":0}}\n";
  os_.flush();
}

void write_chrome_trace_file(const Tracer& tracer, const std::string& path,
                             const ChromeWriteOptions& options) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("trace: cannot open " + path);
  }
  write_chrome_trace(tracer, os, options);
  if (!os) {
    throw std::runtime_error("trace: write failed for " + path);
  }
}

void write_chrome_trace_file(const std::vector<const Tracer*>& tracers,
                             const std::string& path,
                             const ChromeWriteOptions& options) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("trace: cannot open " + path);
  }
  write_chrome_trace(tracers, os, options);
  if (!os) {
    throw std::runtime_error("trace: write failed for " + path);
  }
}

}  // namespace sv::trace
