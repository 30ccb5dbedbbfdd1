#include "trace/chrome_sink.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

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
  return '"' + std::to_string(id) + '"';
}

void write_record(std::ostream& os, const TrackInfo& t, int pid, int tid,
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

}  // namespace

ChromeWriter::ChromeWriter(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
}

std::ostream& ChromeWriter::sep() {
  if (!first_) {
    os_ << ",\n";
  }
  first_ = false;
  return os_;
}

const ChromeWriter::TrackAddr& ChromeWriter::lane(const EventRef& r) {
  std::vector<TrackAddr>& lanes = lanes_[r.source];
  if (r.event->track >= lanes.size()) {
    lanes.resize(r.event->track + std::size_t{1});
  }
  TrackAddr& a = lanes[r.event->track];
  if (a.pid == 0) {
    const TrackInfo& t = *r.track;
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

void ChromeWriter::drain(const std::vector<Tracer*>& tracers) {
  if (lanes_.size() < tracers.size()) {
    lanes_.resize(tracers.size());
  }
  for (const EventRef& r : merge_traces(tracers)) {
    const Event& e = *r.event;
    const TrackAddr& a = lane(r);
    write_record(sep(), *r.track, a.pid, a.tid, e);
    if (e.kind == EventKind::kSpan && e.flow != 0) {
      flows_[e.flow].push_back(FlowHop{e.ts, a.pid, a.tid});
      if (flows_.size() > kMaxPendingFlows) {
        // Lowest id first: every node numbers its flows upward.
        auto oldest = flows_.begin();
        write_flow(oldest->first, oldest->second);
        flows_.erase(oldest);
        ++flows_evicted_;
      }
    }
  }
  for (Tracer* tr : tracers) {
    events_written_ += tr->size();
    dropped_ += tr->dropped();
    tr->clear();
  }
}

/// One flow's arrow chain: the first hop by start time is "s", the last
/// "f", the ones between "t".
void ChromeWriter::write_flow(std::uint64_t id, std::vector<FlowHop>& hops) {
  if (hops.size() < 2) {
    return;
  }
  std::stable_sort(hops.begin(), hops.end(),
                   [](const FlowHop& a, const FlowHop& b) {
                     return a.ts < b.ts;
                   });
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const char* ph = i == 0 ? "s" : (i + 1 == hops.size() ? "f" : "t");
    sep() << "{\"ph\":\"" << ph << "\",\"cat\":\"flow\",\"name\":\"msg\""
          << ",\"id\":" << flow_id(id) << ",\"pid\":" << hops[i].pid
          << ",\"tid\":" << hops[i].tid << ",\"ts\":" << us(hops[i].ts);
    if (*ph == 'f') {
      os_ << ",\"bp\":\"e\"";
    }
    os_ << "}";
  }
}

void ChromeWriter::finish(sim::Tick sim_now) {
  for (auto& [id, hops] : flows_) {
    write_flow(id, hops);
  }
  flows_.clear();
  os_ << "\n],\"otherData\":{\"sim_now_ps\":" << sim_now
      << ",\"recorded\":" << events_written_ + dropped_
      << ",\"dropped\":" << dropped_ << "}}\n";
  os_.flush();
}

}  // namespace sv::trace
