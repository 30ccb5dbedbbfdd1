// Tracer ring-buffer semantics, Chrome JSON round-trip, the JSON reader's
// errors, epoch drains, and the end-to-end guarantee that trace-derived
// occupancy agrees with the StatRegistry occupancy for the same run.
#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sys/stats_dump.hpp"
#include "sys/workload.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_sink.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"
#include "xfer/approaches.hpp"

namespace sv::trace {
namespace {

/// Everything the tracers hold as one Chrome document: one drain, then
/// finish.
std::string chrome_json(const std::vector<Tracer*>& tracers,
                        sim::Tick sim_now) {
  std::ostringstream os;
  ChromeWriter writer(os);
  writer.drain(tracers);
  writer.finish(sim_now);
  return os.str();
}

TEST(Tracer, RingOverflowKeepsNewest) {
  Tracer tr(4);
  const TrackId t = tr.track("p", "lane", "test");
  for (int i = 0; i < 6; ++i) {
    tr.span(t, 's' + std::to_string(i), 10 * i, 10 * i + 5);
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.recorded(), 6u);
  EXPECT_EQ(tr.dropped(), 2u);
  std::vector<std::string> names;
  tr.for_each([&](const Event& e) { names.push_back(e.name); });
  EXPECT_EQ(names, (std::vector<std::string>{"s2", "s3", "s4", "s5"}));
}

TEST(Tracer, TrackForSplitsAtFirstDot) {
  Tracer tr;
  const TrackId a = tr.track_for("n0.NIU.TxU", "niu");
  const TrackId b = tr.track("n0", "NIU.TxU", "niu");
  EXPECT_EQ(a, b);
  EXPECT_EQ(tr.tracks()[a].process, "n0");
  EXPECT_EQ(tr.tracks()[a].name, "NIU.TxU");
}

TEST(ChromeSink, RoundTripsThroughAnalysis) {
  Tracer tr;
  const TrackId bus = tr.track("n0", "bus", "bus");
  const TrackId link = tr.track("net", "inj0", "link");
  const TrackId depth = tr.track("n0", "txq0", "queue", /*counter=*/true);
  const std::uint64_t flow = tr.next_flow();
  tr.span(bus, "Read", 1'000'000, 2'000'000);
  tr.span(bus, "Read", 1'500'000, 2'500'000);  // overlaps: union = 1.5us
  tr.span(link, "pkt>n1", 3'000'000, 4'000'000, flow);
  tr.span(link, "pkt>n1", 5'000'000, 6'000'000, flow);
  tr.counter(depth, 1'000'000, 3.0);

  TraceAnalysis a = TraceAnalysis::parse_text(chrome_json({&tr}, 10'000'000));

  EXPECT_EQ(a.sim_now_ps, 10'000'000u);
  EXPECT_EQ(a.duration_ps(), 10'000'000u);
  EXPECT_EQ(a.spans.size(), 4u);
  EXPECT_EQ(a.counter_samples, 1u);
  EXPECT_EQ(a.counter_tracks, 1u);

  bool saw_bus = false;
  bool saw_link = false;
  for (std::size_t i = 0; i < a.tracks.size(); ++i) {
    const auto& t = a.tracks[i];
    if (t.full_name() == "n0.bus") {
      saw_bus = true;
      EXPECT_EQ(t.busy_ps, 1'500'000u);  // overlap merged
      EXPECT_DOUBLE_EQ(a.occupancy(i), 0.15);
    } else if (t.full_name() == "net.inj0") {
      saw_link = true;
      EXPECT_EQ(t.busy_ps, 2'000'000u);
      EXPECT_EQ(t.category, "link");
    }
  }
  EXPECT_TRUE(saw_bus);
  EXPECT_TRUE(saw_link);

  const auto flows = a.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].id, flow);
  EXPECT_EQ(flows[0].hops, 2u);
  EXPECT_EQ(flows[0].latency_ps(), 3'000'000u);
  EXPECT_EQ(flows[0].by_category_ps.at("link"), 2'000'000u);
}

TEST(ChromeSink, FlowIdsAbove2To53StayDistinctStrings) {
  // NIU flow ids set bit 62. As JSON numbers, these two would parse to one
  // double in Perfetto and Chrome; as strings they stay two flows.
  constexpr std::uint64_t kA = (std::uint64_t{1} << 62) | (3ull << 40) | 1;
  constexpr std::uint64_t kB = kA + 1;
  Tracer tr;
  const TrackId tx = tr.track("n3", "NIU.TxU", "niu");
  const TrackId link = tr.track("net", "inj3", "link");
  for (const std::uint64_t id : {kA, kB}) {
    const sim::Tick t0 = id == kA ? 1'000'000 : 2'000'000;
    tr.span(tx, "msg", t0, t0 + 100'000, id);
    tr.span(link, "pkt", t0 + 200'000, t0 + 300'000, id);
  }
  const std::string out = chrome_json({&tr}, 10'000'000);
  for (const std::uint64_t id : {kA, kB}) {
    const std::string quoted = '"' + std::to_string(id) + '"';
    EXPECT_NE(out.find("\"flow\":" + quoted), std::string::npos) << id;
    EXPECT_NE(out.find("\"id\":" + quoted), std::string::npos) << id;
  }
  EXPECT_EQ(out.find("\"flow\":4"), std::string::npos) << "unquoted flow id";
  EXPECT_EQ(out.find("\"id\":4"), std::string::npos) << "unquoted arrow id";

  const auto flows = TraceAnalysis::parse_text(out).flows();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(std::min(flows[0].id, flows[1].id), kA);
  EXPECT_EQ(std::max(flows[0].id, flows[1].id), kB);

  // The analyzer still reads the unquoted form of older traces exactly.
  const std::string legacy =
      "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1,"
      "\"dur\":1,\"args\":{\"flow\":" + std::to_string(kA) + "}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":3,\"dur\":1,"
      "\"args\":{\"flow\":\"" + std::to_string(kB) + "\"}}]}";
  const auto mixed = TraceAnalysis::parse_text(legacy).flows();
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(std::min(mixed[0].id, mixed[1].id), kA);
  EXPECT_EQ(std::max(mixed[0].id, mixed[1].id), kB);
}

TEST(Json, MalformedInputThrowsNamingTheOffset) {
  const std::pair<std::string_view, std::string_view> cases[] = {
      {R"({"a":[1,)", "json: unexpected end of input at offset 8"},
      {R"({"a":tru})", "json: bad literal at offset 5"},
      {R"({"a":"abc)", "json: unterminated string at offset 9"},
      {R"({"a":"ab\)", "json: unterminated escape at offset 9"},
      {R"({"a":1} x)", "json: trailing characters at offset 8"},
  };
  for (const auto& [text, what] : cases) {
    try {
      (void)Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), what) << text;
    }
  }
}

TEST(ChromeWriter, DrainedRingsLoseNothing) {
  // A 2-event ring drained after every record keeps all 8 events; drained
  // only at the end, it keeps the newest 2 and reports the other 6.
  for (const bool drain_each : {true, false}) {
    Tracer tr(2);
    std::ostringstream os;
    ChromeWriter writer(os);
    const TrackId t = tr.track("p", "lane", "test");
    for (int i = 0; i < 8; ++i) {
      tr.span(t, 's' + std::to_string(i), 10'000 * i, 10'000 * i + 5'000);
      if (drain_each) {
        writer.drain({&tr});
      }
    }
    writer.drain({&tr});
    writer.finish(100'000);
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(writer.events_written(), drain_each ? 8u : 2u);
    const TraceAnalysis a = TraceAnalysis::parse_text(os.str());
    EXPECT_EQ(a.spans.size(), drain_each ? 8u : 2u);
    EXPECT_EQ(a.dropped, drain_each ? 0u : 6u);
  }
}

TEST(ChromeWriter, FlowTableBoundEvictsOldestChainIntact) {
  // Two flows past the bound, each complete (2 hops) before the next
  // starts: evictions write finished chains, so no arrow is lost.
  constexpr std::size_t kFlows = ChromeWriter::kMaxPendingFlows + 2;
  Tracer tr;
  const TrackId a = tr.track("n0", "tx", "link");
  const TrackId b = tr.track("n1", "rx", "link");
  for (std::size_t f = 0; f < kFlows; ++f) {
    const std::uint64_t id = tr.next_flow();
    const sim::Tick base = 1'000'000 * (f + 1);
    tr.span(a, "send", base, base + 100'000, id);
    tr.span(b, "recv", base + 200'000, base + 300'000, id);
  }
  std::ostringstream os;
  ChromeWriter writer(os);
  writer.drain({&tr});
  writer.finish(1'000'000 * (kFlows + 1));
  EXPECT_EQ(writer.flows_evicted(), 2u);

  // Every hop is written, and each flow is one chain: its "s" arrow, then
  // its "f" arrow.
  std::size_t hops = 0;
  std::map<std::string, std::string> phases;  // flow id -> arrow phases
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) {
    hops += line.find("\"args\":{\"flow\":") != std::string::npos ? 1 : 0;
    const std::string::size_type id = line.find("\"id\":\"");
    if (line.rfind("{\"ph\":\"", 0) == 0 && id != std::string::npos) {
      const std::string::size_type from = id + 6;
      phases[line.substr(from, line.find('"', from) - from)] += line[7];
    }
  }
  EXPECT_EQ(hops, 2 * kFlows);
  ASSERT_EQ(phases.size(), kFlows);
  for (const auto& [id, chain] : phases) {
    EXPECT_EQ(chain, "sf") << id;
  }
}

TEST(TraceIntegration, XferTraceMatchesStatRegistry) {
  sys::Machine::Params mp;
  mp.nodes = 2;
  mp.node.dram_size = 16ull * 1024 * 1024;
  mp.node.enable_scoma = false;
  sys::Machine machine(mp);
  machine.enable_tracing();

  xfer::BlockTransferHarness harness(machine);
  xfer::TransferSpec spec;
  spec.src = 0x0010'0000;
  spec.dst = 0x0040'0000;
  spec.len = 16384;
  const auto res = harness.run(3, spec);
  ASSERT_TRUE(res.ok);

  TraceAnalysis a = TraceAnalysis::parse_text(
      chrome_json(machine.tracers(), machine.kernel().now()));
  const sim::StatRegistry reg = sys::collect_stats(machine);

  // The trace must show the message path across distinct hardware lanes,
  // plus at least one queue-depth counter track.
  std::size_t span_lanes = 0;
  bool saw_sp = false;
  bool saw_link = false;
  for (const auto& t : a.tracks) {
    span_lanes += t.spans > 0 ? 1 : 0;
    saw_sp = saw_sp || (t.full_name() == "n0.sP" && t.spans > 0);
    saw_link = saw_link || (t.category == "link" && t.spans > 0);
  }
  EXPECT_GE(span_lanes, 4u);
  EXPECT_TRUE(saw_sp);
  EXPECT_TRUE(saw_link);
  EXPECT_GE(a.counter_tracks, 1u);
  EXPECT_FALSE(a.flows().empty());

  // Trace-derived occupancy agrees with the StatRegistry (within 1%).
  const struct {
    const char* lane;
    const char* stat;
  } pairs[] = {
      {"n0.bus", "n0.bus.data_occupancy"},
      {"n1.bus", "n1.bus.data_occupancy"},
      {"n0.NIU.IBus", "n0.ctrl.ibus_occupancy"},
      {"n0.aP", "n0.aP.occupancy"},
      {"n0.sP", "n0.sP.occupancy"},
  };
  for (const auto& [lane, stat] : pairs) {
    bool found = false;
    for (std::size_t i = 0; i < a.tracks.size(); ++i) {
      if (a.tracks[i].full_name() == lane) {
        found = true;
        EXPECT_NEAR(a.occupancy(i), reg.get(stat), 0.01) << lane;
      }
    }
    EXPECT_TRUE(found) << lane;
  }
}

/// A registry workload traced as svsim traces it: every epoch barrier
/// drains the tracers into one writer, and so does the end of the run.
std::string drained_trace(const std::vector<std::string>& kv,
                          std::size_t ring, std::uint64_t* dropped) {
  const sim::Config cfg = sim::Config::from_args(kv);
  sys::Machine machine(sys::machine_params(cfg));
  machine.enable_tracing(ring);
  const auto run = sys::workload("msg").launch(machine, cfg);
  std::ostringstream os;
  ChromeWriter writer(os);
  const auto tracers = machine.tracers();
  EXPECT_TRUE(machine.run_epochs_until(
      [&] {
        writer.drain(tracers);
        return run->finished();
      },
      machine.now() + 100 * sim::kMillisecond));
  writer.drain(tracers);
  writer.finish(machine.now());
  *dropped = writer.dropped();
  return os.str();
}

TEST(TraceIntegration, EpochDrainsFitASmallRing) {
  // One epoch of events fits a 256-event ring, so draining at every
  // barrier writes the same file as the default 1 Mi ring, sequential or
  // partitioned.
  for (const char* threads : {"threads=0", "threads=2"}) {
    const std::vector<std::string> kv = {"nodes=4", "net=ideal", threads};
    std::uint64_t small_dropped = 1;
    std::uint64_t full_dropped = 1;
    const std::string small = drained_trace(kv, 256, &small_dropped);
    const std::string full =
        drained_trace(kv, Tracer::kDefaultCapacity, &full_dropped);
    EXPECT_EQ(small_dropped, 0u) << threads;
    EXPECT_EQ(full_dropped, 0u) << threads;
    EXPECT_EQ(small, full) << threads;
    EXPECT_GT(TraceAnalysis::parse_text(small).spans.size(), 256u) << threads;
  }
}

}  // namespace
}  // namespace sv::trace
