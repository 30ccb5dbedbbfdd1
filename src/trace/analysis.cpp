#include "trace/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "trace/json.hpp"

namespace sv::trace {

namespace {

std::uint64_t us_to_ps(double us) {
  return static_cast<std::uint64_t>(std::llround(us * 1e6));
}

}  // namespace

TraceAnalysis TraceAnalysis::parse(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_text(buf.str());
}

TraceAnalysis TraceAnalysis::parse_text(const std::string& text) {
  const Json doc = Json::parse(text);
  const Json& events = doc["traceEvents"];
  if (events.type() != Json::Type::kArray) {
    throw std::runtime_error("trace: no traceEvents array");
  }

  TraceAnalysis out;
  out.sim_now_ps = static_cast<std::uint64_t>(
      doc["otherData"].number_or("sim_now_ps", 0.0));
  out.dropped = static_cast<std::uint64_t>(
      doc["otherData"].number_or("dropped", 0.0));

  std::map<std::pair<int, int>, std::size_t> track_of;  // (pid, tid) -> idx
  std::map<int, std::string> process_names;
  const auto track_idx = [&](int pid, int tid) -> std::size_t {
    auto [it, fresh] = track_of.emplace(std::make_pair(pid, tid),
                                        out.tracks.size());
    if (fresh) {
      out.tracks.push_back(AnalyzedTrack{"pid" + std::to_string(pid), "", "",
                                         false, 0, 0});
    }
    return it->second;
  };

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> intervals;
  const auto intervals_for = [&](std::size_t t)
      -> std::vector<std::pair<std::uint64_t, std::uint64_t>>& {
    if (intervals.size() <= t) {
      intervals.resize(t + 1);
    }
    return intervals[t];
  };

  for (const Json& e : events.as_array()) {
    const std::string ph = e.string_or("ph", "");
    const int pid = static_cast<int>(e.number_or("pid", 0.0));
    const int tid = static_cast<int>(e.number_or("tid", 0.0));
    if (ph == "M") {
      const std::string what = e.string_or("name", "");
      const std::string value = e["args"].string_or("name", "");
      if (what == "process_name") {
        process_names[pid] = value;
      } else if (what == "thread_name") {
        out.tracks[track_idx(pid, tid)].name = value;
      }
    } else if (ph == "X") {
      const std::size_t t = track_idx(pid, tid);
      AnalyzedSpan s;
      s.track = t;
      s.ts_ps = us_to_ps(e.number_or("ts", 0.0));
      s.dur_ps = us_to_ps(e.number_or("dur", 0.0));
      s.flow = e["args"].u64_or("flow", 0);
      s.name = e.string_or("name", "");
      AnalyzedTrack& tr = out.tracks[t];
      if (tr.category.empty()) {
        tr.category = e.string_or("cat", "");
      }
      ++tr.spans;
      intervals_for(t).emplace_back(s.ts_ps, s.ts_ps + s.dur_ps);
      out.spans.push_back(std::move(s));
    } else if (ph == "C") {
      const std::size_t t = track_idx(pid, tid);
      if (!out.tracks[t].has_counter) {
        out.tracks[t].has_counter = true;
        ++out.counter_tracks;
      }
      if (out.tracks[t].name.empty()) {
        out.tracks[t].name = e.string_or("name", "");
      }
      ++out.counter_samples;
    }
    // "i", "s", "t", "f" carry no duration: nothing to accumulate.
  }

  for (const auto& [key, idx] : track_of) {
    if (auto it = process_names.find(key.first); it != process_names.end()) {
      out.tracks[idx].process = it->second;
    }
  }

  // Union-merge each track's span intervals so overlapping spans (e.g.
  // queue residency of several messages) don't double-count busy time.
  for (std::size_t t = 0; t < out.tracks.size(); ++t) {
    if (intervals.size() <= t || intervals[t].empty()) {
      continue;
    }
    auto& iv = intervals[t];
    std::sort(iv.begin(), iv.end());
    std::uint64_t busy = 0;
    std::uint64_t lo = iv[0].first;
    std::uint64_t hi = iv[0].second;
    for (std::size_t i = 1; i < iv.size(); ++i) {
      if (iv[i].first > hi) {
        busy += hi - lo;
        lo = iv[i].first;
        hi = iv[i].second;
      } else {
        hi = std::max(hi, iv[i].second);
      }
    }
    busy += hi - lo;
    out.tracks[t].busy_ps = busy;
  }
  return out;
}

std::uint64_t TraceAnalysis::span_end_ps() const {
  std::uint64_t end = 0;
  for (const AnalyzedSpan& s : spans) {
    end = std::max(end, s.ts_ps + s.dur_ps);
  }
  return end;
}

std::uint64_t TraceAnalysis::duration_ps() const {
  return sim_now_ps != 0 ? sim_now_ps : span_end_ps();
}

double TraceAnalysis::occupancy(std::size_t track) const {
  const std::uint64_t dur = duration_ps();
  if (dur == 0) {
    return 0.0;
  }
  return static_cast<double>(tracks.at(track).busy_ps) /
         static_cast<double>(dur);
}

std::vector<AnalyzedSpan> TraceAnalysis::longest(std::size_t n) const {
  std::vector<AnalyzedSpan> sorted = spans;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const AnalyzedSpan& a, const AnalyzedSpan& b) {
                     return a.dur_ps > b.dur_ps;
                   });
  if (sorted.size() > n) {
    sorted.resize(n);
  }
  return sorted;
}

std::vector<FlowSummary> TraceAnalysis::flows() const {
  std::map<std::uint64_t, FlowSummary> by_id;
  for (const AnalyzedSpan& s : spans) {
    if (s.flow == 0) {
      continue;
    }
    auto [it, fresh] = by_id.emplace(s.flow, FlowSummary{});
    FlowSummary& f = it->second;
    if (fresh) {
      f.id = s.flow;
      f.start_ps = s.ts_ps;
      f.end_ps = s.ts_ps + s.dur_ps;
    } else {
      f.start_ps = std::min(f.start_ps, s.ts_ps);
      f.end_ps = std::max(f.end_ps, s.ts_ps + s.dur_ps);
    }
    ++f.hops;
    f.by_category_ps[tracks[s.track].category] += s.dur_ps;
  }
  std::vector<FlowSummary> out;
  out.reserve(by_id.size());
  for (auto& [id, f] : by_id) {
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace sv::trace
