#include "trace/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

namespace sv::trace {

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TrackId Tracer::track(std::string_view process, std::string_view name,
                      std::string_view category, bool counter) {
  std::string key;
  key.reserve(process.size() + 1 + name.size());
  key.append(process);
  key.push_back('\0');  // separator that cannot appear in either part
  key.append(name);
  if (auto it = by_key_.find(key); it != by_key_.end()) {
    return it->second;
  }
  const auto id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(TrackInfo{std::string(process), std::string(name),
                              std::string(category), counter});
  by_key_.emplace(std::move(key), id);
  return id;
}

TrackId Tracer::track_for(std::string_view object_name,
                          std::string_view category, bool counter) {
  const auto dot = object_name.find('.');
  if (dot == std::string_view::npos) {
    return track(object_name, object_name, category, counter);
  }
  return track(object_name.substr(0, dot), object_name.substr(dot + 1),
               category, counter);
}

void Tracer::span(TrackId t, std::string name, sim::Tick start, sim::Tick end,
                  std::uint64_t flow) {
  if (t == kNoTrack || end < start) {
    return;
  }
  push(Event{EventKind::kSpan, t, start, end - start, 0.0, flow,
             std::move(name)});
}

void Tracer::instant(TrackId t, std::string name, sim::Tick ts,
                     std::uint64_t flow) {
  if (t == kNoTrack) {
    return;
  }
  push(Event{EventKind::kInstant, t, ts, 0, 0.0, flow, std::move(name)});
}

void Tracer::counter(TrackId t, sim::Tick ts, double value) {
  if (t == kNoTrack) {
    return;
  }
  push(Event{EventKind::kCounter, t, ts, 0, value, 0, {}});
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
}

void Tracer::push(Event e) {
  ++recorded_;
  if (sink_ != nullptr) {
    sink_->on_event(*this, e);
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
}

std::vector<EventRef> merge_traces(const std::vector<Tracer*>& tracers) {
  std::size_t held = 0;
  for (const Tracer* tr : tracers) {
    held += tr->size();
  }
  std::vector<EventRef> out;
  out.reserve(held);
  // Gathered tracer by tracer, each oldest first: as every lane is recorded
  // by one domain, the stable sort keeps each lane's record order.
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    const std::vector<TrackInfo>& tracks = tracers[i]->tracks();
    const auto source = static_cast<std::uint32_t>(i);
    tracers[i]->for_each([&](const Event& e) {
      out.push_back(EventRef{&e, &tracks[e.track], source});
    });
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const EventRef& a, const EventRef& b) {
                     if (a.event->ts != b.event->ts) {
                       return a.event->ts < b.event->ts;
                     }
                     return a.track != b.track &&
                            std::tie(a.track->process, a.track->name) <
                                std::tie(b.track->process, b.track->name);
                   });
  return out;
}

std::string canonical_span_dump(const std::vector<Tracer*>& tracers) {
  const std::vector<EventRef> merged = merge_traces(tracers);
  std::string out;
  out.reserve(merged.size() * 64);
  char buf[64];
  for (const EventRef& r : merged) {
    const Event& e = *r.event;
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " ", e.ts);
    out += buf;
    out += r.track->process;
    out += '/';
    out += r.track->name;
    switch (e.kind) {
      case EventKind::kSpan:
        std::snprintf(buf, sizeof(buf),
                      " span dur=%" PRIu64 " flow=%" PRIu64 " ", e.dur,
                      e.flow);
        break;
      case EventKind::kInstant:
        std::snprintf(buf, sizeof(buf), " instant flow=%" PRIu64 " ",
                      e.flow);
        break;
      case EventKind::kCounter:
        std::snprintf(buf, sizeof(buf), " counter value=%.17g ", e.value);
        break;
    }
    out += buf;
    out += e.name;
    out += '\n';
  }
  return out;
}

}  // namespace sv::trace
