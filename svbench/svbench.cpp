// svbench: the simulator's end-to-end host-performance benchmark.
//
//   svbench --workload fig4|apps|scale|parallel --seed N --seconds S
//           --trace 0|1 [--threads T] [--size full|tiny] [--rev R]
//
// Each workload is a fixed amount of simulated work generated from the
// seed (a "pass"), repeated until --seconds of host time have elapsed.
// Simulated statistics repeat exactly, so every pass is checked against
// the run's first pass by a CRC-32 digest over collect_stats, and an
// untimed warm-up pass on the default seed is checked against a pinned
// digest. Only host time is noisy.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the separate
// traced run: it records the benchmark's own host-time spans around its
// calls into the simulator's layers, and alternates those passes with
// passes under the machine tracer, whose records a benchmark-owned
// TraceSink tallies per category. The last line of stdout is the result
// object; README.md beside this file explains each metric.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "app/apps.hpp"
#include "msg/endpoint.hpp"
#include "sim/crc32.hpp"
#include "sim/random.hpp"
#include "sys/machine.hpp"
#include "sys/stats_dump.hpp"
#include "trace/trace.hpp"
#include "xfer/approaches.hpp"

#ifndef SVBENCH_BUILD_TYPE
#define SVBENCH_BUILD_TYPE "unknown"
#endif

namespace sv::svbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kDefaultSeed = 1;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

/// Digests of the warm-up pass (default seed, full size) per workload. A
/// model change moves them and fails every unit of the warm-up pass; a
/// change that claims only simulator speed must leave them as they are.
constexpr std::pair<std::string_view, std::uint32_t> kPinnedDigests[] = {
    {"fig4", 0x5f3eddaa},
    {"apps", 0x31fea3ab},
    {"scale", 0x02af8e01},
    {"parallel", 0x98554de4},
};

/// Linear-interpolated quantile (q in [0, 1]); 0 when there are no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <typename T>
void shuffle(std::vector<T>& v, sim::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// ---------------------------------------------------------------------------
// Instrumentation owned by the benchmark.
// ---------------------------------------------------------------------------

/// Host-time samples the benchmark records around its calls into the
/// simulator's layers. Recording is on only in the traced run; otherwise
/// every hook is one branch.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }
  void add(const std::string& name, double value) {
    if (on_) {
      samples_[name].push_back(value);
    }
  }
  [[nodiscard]] std::vector<double> get(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }
  [[nodiscard]] double sum(const std::string& name) const {
    const auto v = get(name);
    return std::accumulate(v.begin(), v.end(), 0.0);
  }

  /// Host seconds between successive epoch-boundary predicate calls. Kept
  /// apart from the named samples: it is appended once per epoch.
  std::vector<double> epoch_s;

 private:
  bool on_;
  std::map<std::string, std::vector<double>> samples_;
};

constexpr std::array<std::string_view, 6> kTraceCategories = {
    "cpu", "bus", "niu", "fw", "link", "router"};

struct TraceTotals {
  std::uint64_t records = 0;
  std::array<sim::Tick, kTraceCategories.size()> span_ps{};  // simulated
};

/// Counts one event domain's trace records and sums simulated span time
/// per tracer category. One sink per domain: partitioned domains record
/// from worker threads, so a sink is never shared.
class CategoryTally final : public trace::TraceSink {
 public:
  void on_event(const trace::Tracer& tracer, const trace::Event& e) override {
    ++totals.records;
    if (e.kind != trace::EventKind::kSpan) {
      return;
    }
    const auto& tracks = tracer.tracks();
    while (category_.size() < tracks.size()) {
      const std::string& c = tracks[category_.size()].category;
      const auto it =
          std::find(kTraceCategories.begin(), kTraceCategories.end(), c);
      category_.push_back(static_cast<int>(it - kTraceCategories.begin()));
    }
    const int c = category_[e.track];
    if (c < static_cast<int>(kTraceCategories.size())) {
      totals.span_ps[static_cast<std::size_t>(c)] += e.dur;
    }
  }

  TraceTotals totals;

 private:
  std::vector<int> category_;  // per track id; size() means "other"
};

/// The machine tracer with one CategoryTally per event domain. Declare it
/// before the Machine it traces so the sinks outlive the tracers.
class MachineTrace {
 public:
  void attach(sys::Machine& m) {
    m.enable_tracing(1);  // the sinks see every record; keep the ring tiny
    const std::size_t domains = m.partitioned() ? m.size() : 1;
    for (std::size_t d = 0; d < domains; ++d) {
      sinks_.push_back(std::make_unique<CategoryTally>());
      m.domain(static_cast<sim::NodeId>(d)).tracer()->set_sink(
          sinks_.back().get());
    }
  }

  void add_to(TraceTotals& t) const {
    for (const auto& s : sinks_) {
      t.records += s->totals.records;
      for (std::size_t c = 0; c < t.span_ps.size(); ++c) {
        t.span_ps[c] += s->totals.span_ps[c];
      }
    }
  }

 private:
  std::vector<std::unique_ptr<CategoryTally>> sinks_;
};

// ---------------------------------------------------------------------------
// One pass: its host times, its verification and its simulated totals.
// ---------------------------------------------------------------------------

/// Simulated per-layer totals of one pass, summed over its machines. They
/// repeat exactly for a given seed and size.
struct Model {
  double nodes = 0;  // node count summed over machines (occupancy means)
  double events_executed = 0;
  double events_scheduled = 0;
  double imbalance = 1.0;
  double bus_transactions = 0;
  double bus_retries = 0;
  double bus_occupancy = 0;
  double cache_hits = 0;
  double cache_accesses = 0;
  double ap_busy_us = 0;
  double sp_busy_us = 0;
  double msgs_launched = 0;
  double block_ops = 0;
  double rx_hits = 0;
  double rx_misses = 0;
  double ibus_occupancy = 0;
  double scoma_misses = 0;
  double numa_remote_ops = 0;
  double miss_serviced = 0;
  double packets_delivered = 0;
  double transit_us_total = 0;
  double packets_injected = 0;
  double packets_dropped = 0;
  double app_ops = 0;
  double app_frames = 0;
  double app_msgs = 0;

  void add(const std::map<std::string, double>& stats) {
    for (const auto& [name, v] : stats) {
      const std::string_view n = name;
      const bool per_node = n.size() > 1 && n[0] == 'n' &&
                            n[1] >= '0' && n[1] <= '9';
      if (!per_node) {
        if (n == "net.packets_delivered") {
          packets_delivered += v;
          transit_us_total += v * stats.at("net.mean_transit_us");
        } else if (n == "net.packets_injected") {
          packets_injected += v;
        } else if (n == "net.packets_dropped") {
          packets_dropped += v;
        } else if (n == "app.total.frames_sent") {
          app_frames += v;
        } else if (n == "app.total.msgs_sent") {
          app_msgs += v;
        } else if (n == "bench.app_ops") {
          app_ops += v;
        }
        continue;
      }
      const std::string_view k = n.substr(n.find('.') + 1);
      if (k == "bus.transactions") {
        bus_transactions += v;
        nodes += 1;
      } else if (k == "bus.retries") {
        bus_retries += v;
      } else if (k == "bus.data_occupancy") {
        bus_occupancy += v;
      } else if (k == "cache.read_hits" || k == "cache.write_hits") {
        cache_hits += v;
        cache_accesses += v;
      } else if (k == "cache.read_misses" || k == "cache.write_misses") {
        cache_accesses += v;
      } else if (k == "aP.busy_us") {
        ap_busy_us += v;
      } else if (k == "sP.busy_us") {
        sp_busy_us += v;
      } else if (k == "ctrl.msgs_launched") {
        msgs_launched += v;
      } else if (k == "ctrl.block_ops") {
        block_ops += v;
      } else if (k == "ctrl.rx_hits") {
        rx_hits += v;
      } else if (k == "ctrl.rx_misses") {
        rx_misses += v;
      } else if (k == "ctrl.ibus_occupancy") {
        ibus_occupancy += v;
      } else if (k == "scoma.read_misses" || k == "scoma.write_misses") {
        scoma_misses += v;
      } else if (k == "numa.remote_loads" || k == "numa.remote_stores") {
        numa_remote_ops += v;
      } else if (k == "miss_service.serviced") {
        miss_serviced += v;
      }
    }
  }
};

struct Pass {
  double setup_s = 0;  // building machines, endpoints, harness or World
  double run_s = 0;    // the simulated work, draining and collect_stats
  double probe_s = 0;  // host_speed_probe() just before the pass
  std::vector<double> unit_ms;
  std::vector<std::string> unit_labels;  // parallel to unit_ms
  std::uint64_t units = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::uint32_t digest = 0;
  Model model;
  // Benchmark-owned predicate calls. On fig4 only the drain check counts:
  // BlockTransferHarness::run polls its own predicate, once per event.
  std::uint64_t pred_calls = 0;
  std::uint64_t epochs = 0;      // of them, those at an epoch boundary
  TraceTotals trace;  // passes under the machine tracer only

  /// Record one unit: its host time and why it failed (empty: it passed).
  void unit(std::string label, double seconds, const std::string& failure) {
    unit_labels.push_back(std::move(label));
    unit_ms.push_back(seconds * 1e3);
    ++units;
    if (!failure.empty()) {
      note_failure(failure);
      ++failed;
    }
  }
  /// A check over the whole pass failed: every unit of it fails.
  void fail_all(const std::string& failure) {
    note_failure(failure);
    failed = units;
  }

 private:
  void note_failure(const std::string& failure) {
    if (first_failure.empty()) {
      first_failure = failure;
    }
  }
};

/// CRC-32 over the model statistics, each name and value in name order.
/// sim.events is left out: it counts the kernel's sequence numbers, which
/// is simulator bookkeeping rather than model output.
std::uint32_t digest_of(const std::map<std::string, double>& stats) {
  std::uint32_t crc = 0;
  for (const auto& [name, value] : stats) {
    if (name == "sim.events") {
      continue;
    }
    // data()[size()] is the terminating NUL, which separates the fields.
    crc = sim::crc32(std::as_bytes(std::span(name.data(), name.size() + 1)),
                     crc);
    crc = sim::crc32(std::as_bytes(std::span(&value, 1)), crc);
  }
  return crc;
}

/// Drive `m` in whole epochs (Machine::run_epochs_until) until `done`
/// holds, for at most `budget` of simulated time. The predicate is the
/// benchmark's own: its calls are counted, and with spans on the host
/// time between successive calls (one epoch) is recorded.
bool drive(sys::Machine& m, const std::function<bool()>& done,
           sim::Tick budget, Pass& p, Spans& spans) {
  bool first = true;
  Clock::time_point last;
  return m.run_epochs_until(
      [&] {
        ++p.pred_calls;
        if (!first) {
          ++p.epochs;
        }
        if (spans.on()) {
          const auto now = Clock::now();
          if (!first) {
            spans.epoch_s.push_back(
                std::chrono::duration<double>(now - last).count());
          }
          last = now;
        }
        first = false;
        return done();
      },
      m.now() + budget);
}

/// Ends one machine's share of a pass: drains the network until every
/// packet it accepted is delivered or dropped (Network::audit), collects
/// the model statistics (plus `extra` entries), adds them to the pass
/// model and returns their digest through `digest`. Returns false when
/// the network did not drain within the budget.
bool finish_machine(sys::Machine& m, Pass& p, Spans& spans,
                    std::uint32_t* digest,
                    const std::function<void(sim::StatRegistry&)>& extra = {}) {
  const bool drained =
      drive(m, [&m] { return m.network().audit().balanced(); },
            10 * sim::kMillisecond, p, spans);
  const auto t0 = Clock::now();
  sim::StatRegistry reg = sys::collect_stats(m);
  spans.add("sys.collect_stats", since(t0));
  if (extra) {
    extra(reg);
  }
  const auto& all = reg.all();
  *digest = digest_of(all);
  p.model.add(all);
  p.model.events_executed += static_cast<double>(m.events_executed());
  p.model.events_scheduled += static_cast<double>(m.events_scheduled());
  if (m.partitioned()) {
    double max = 0;
    double sum = 0;
    for (sim::NodeId d = 0; d < m.size(); ++d) {
      const auto e = static_cast<double>(m.domain(d).events_executed());
      max = std::max(max, e);
      sum += e;
    }
    p.model.imbalance = std::max(
        p.model.imbalance, ratio(max, sum / static_cast<double>(m.size())));
  }
  return drained;
}

/// Node memory sizes shared by every workload (as in the bench/ binaries).
sys::Machine::Params machine_params(std::size_t nodes) {
  sys::Machine::Params p;
  p.nodes = nodes;
  p.node.dram_size = 16ull * 1024 * 1024;
  p.node.scoma_size = 2ull * 1024 * 1024;
  p.node.numa_backing_size = 16ull * 1024 * 1024;
  return p;
}

// ---------------------------------------------------------------------------
// fig4: the paper's Figure-4 block transfers.
// ---------------------------------------------------------------------------

Pass fig4_pass(bool tiny, std::uint64_t seed, Spans& spans,
               bool machine_trace) {
  std::vector<std::pair<int, std::uint32_t>> units;
  const std::vector<std::uint32_t> kib =
      tiny ? std::vector<std::uint32_t>{1, 4}
           : std::vector<std::uint32_t>{1, 4, 16, 64, 256};
  for (int approach = 1; approach <= 3; ++approach) {
    for (const std::uint32_t k : kib) {
      units.emplace_back(approach, k * 1024);
    }
  }
  sim::Rng rng(seed);
  shuffle(units, rng);

  Pass p;
  MachineTrace mt;
  const auto t0 = Clock::now();
  auto params = machine_params(2);
  params.node.enable_scoma = false;  // approaches 1-3 as in the paper
  sys::Machine m(params);
  spans.add("sys.construct", since(t0));
  if (machine_trace) {
    mt.attach(m);
  }
  xfer::BlockTransferHarness harness(m);
  p.setup_s = since(t0);

  const auto t1 = Clock::now();
  for (const auto& [approach, len] : units) {
    xfer::TransferSpec spec;  // node 0 to node 1, from 0x0010'0000
    spec.dst = 0x0040'0000;
    spec.len = len;
    const auto u0 = Clock::now();
    const xfer::TransferResult res = harness.run(approach, spec);
    const double s = since(u0);
    const std::string a = "xfer.a" + std::to_string(approach);
    spans.add(a, s);
    spans.add(a + ".kib", len / 1024.0);
    const std::string label =
        "a" + std::to_string(approach) + "/" + std::to_string(len / 1024) +
        "KiB";
    p.unit(label, s, res.ok ? "" : label + ": verification failed or timed out");
  }
  if (!finish_machine(m, p, spans, &p.digest)) {
    p.fail_all("fig4: network did not drain");
  }
  p.run_s = since(t1);
  mt.add_to(p.trace);
  return p;
}

// ---------------------------------------------------------------------------
// apps: stencil, allreduce and kv over msg, shm and reliable transports.
// ---------------------------------------------------------------------------

struct AppSizes {
  std::size_t nodes;
  app::StencilParams stencil;
  app::AllreduceParams allreduce;
  app::KvParams kv;
};

AppSizes app_sizes(bool tiny, std::uint64_t seed) {
  AppSizes s;
  s.nodes = tiny ? 4 : 8;
  s.stencil.iters = tiny ? 2 : 4;      // on the default 16 x 16 grid
  s.allreduce.max_elems = tiny ? 8 : 16;  // 4 .. max, doubling
  s.allreduce.iters = 2;
  s.kv.requests = tiny ? 2 : 8;
  s.kv.seed = seed;  // the request stream
  return s;
}

constexpr const char* kTransportNames[] = {"msg", "shm", "reliable"};
constexpr const char* kAppNames[] = {"stencil", "allreduce", "kv"};

/// Host reference for the stencil checksum: the same Jacobi sweep on the
/// whole grid. Ranks compute every point with the same arithmetic; only
/// the final summation order differs.
double stencil_reference(const app::StencilParams& p) {
  const std::size_t nx = p.nx;
  std::vector<double> u((p.ny + 2) * nx, 0.0);
  std::vector<double> u2(u.size(), 0.0);
  for (std::size_t r = 0; r < p.ny; ++r) {
    for (std::size_t j = 0; j < nx; ++j) {
      u[(r + 1) * nx + j] =
          static_cast<double>((r * 31 + j * 17 + 1) % 97) / 97.0;
    }
  }
  for (std::size_t it = 0; it < p.iters; ++it) {
    for (std::size_t i = 1; i <= p.ny; ++i) {
      for (std::size_t j = 0; j < nx; ++j) {
        const double left = j > 0 ? u[i * nx + j - 1] : 0.0;
        const double right = j + 1 < nx ? u[i * nx + j + 1] : 0.0;
        u2[i * nx + j] = 0.2 * (u[i * nx + j] + u[(i - 1) * nx + j] +
                                u[(i + 1) * nx + j] + left + right);
      }
    }
    u.swap(u2);
  }
  return std::accumulate(u.begin(), u.end(), 0.0);
}

/// Host reference for the allreduce sweep's checksum and operation count.
double allreduce_reference(const app::AllreduceParams& p, std::size_t n,
                           std::uint64_t* ops) {
  const double scale =
      static_cast<double>(n) * static_cast<double>(n + 1) / 2.0;
  double sum = 0.0;
  *ops = 0;
  for (std::size_t size = std::max<std::size_t>(1, p.min_elems);
       size <= p.max_elems; size *= 2) {
    for (std::size_t it = 0; it < p.iters; ++it) {
      sum += static_cast<double>(n) * 0.001 * scale *
             (1.0 + static_cast<double>(size));
      ++*ops;
    }
  }
  return sum;
}

/// Checks one app run against its host reference; empty when it passes.
std::string check_app(int app, const AppSizes& s,
                      const app::AppResult& r) {
  if (r.errors != 0) {
    return std::to_string(r.errors) + " results outside tolerance";
  }
  std::uint64_t ops = 0;
  double checksum = 0.0;
  bool has_checksum = true;
  switch (app) {
    case 0:
      ops = s.nodes * s.stencil.iters;
      checksum = stencil_reference(s.stencil);
      break;
    case 1:
      checksum = allreduce_reference(s.allreduce, s.nodes, &ops);
      break;
    default:
      // Every client request is served once and answered once. The reply
      // contents depend on arrival order, so the checksum has no host
      // reference; the unit digest pins it instead.
      ops = 2 * (s.nodes - s.kv.servers) * s.kv.requests;
      has_checksum = false;
      break;
  }
  if (r.ops != ops) {
    return "ops " + std::to_string(r.ops) + " != " + std::to_string(ops);
  }
  if (has_checksum &&
      std::abs(r.checksum - checksum) >
          1e-9 * std::max(1.0, std::abs(checksum))) {
    return "checksum differs from the host reference";
  }
  return "";
}

app::World::Program app_program(int app, const AppSizes& s,
                                app::AppResult* out) {
  switch (app) {
    case 0:
      return app::make_stencil(s.stencil, out);
    case 1:
      return app::make_allreduce_sweep(s.allreduce, out);
    default:
      return app::make_kv(s.kv, out);
  }
}

Pass apps_pass(bool tiny, std::uint64_t seed, Spans& spans,
               bool machine_trace) {
  const AppSizes sizes = app_sizes(tiny, seed);
  constexpr int kUnits = 9;  // app * 3 + transport
  std::vector<int> order(kUnits);
  std::iota(order.begin(), order.end(), 0);
  sim::Rng rng(seed);
  shuffle(order, rng);

  Pass p;
  std::array<std::uint32_t, kUnits> unit_digest{};
  for (const int u : order) {
    const int app = u / 3;
    const int transport = u % 3;
    const std::string name = std::string(kAppNames[app]) + "/" +
                             kTransportNames[transport];
    app::AppResult result;
    MachineTrace mt;
    const auto t0 = Clock::now();
    sys::Machine m(machine_params(sizes.nodes));
    spans.add("sys.construct", since(t0));
    if (machine_trace) {
      mt.attach(m);
    }
    app::World::Params wp;
    wp.transport = static_cast<app::TransportKind>(transport);
    app::World world(m, wp);
    p.setup_s += since(t0);

    const auto u0 = Clock::now();
    world.launch(app_program(app, sizes, &result));
    const bool done = drive(m, [&world] { return world.done(); },
                            2000 * sim::kMillisecond, p, spans);
    const double s = since(u0);
    spans.add(std::string("app.") + kTransportNames[transport], s);
    std::string failure = done ? check_app(app, sizes, result) : "timed out";
    const bool drained = finish_machine(
        m, p, spans, &unit_digest[static_cast<std::size_t>(u)],
        [&](sim::StatRegistry& reg) {
          world.add_stats(reg);
          reg.set("bench.app_checksum", result.checksum);
          reg.set("bench.app_ops", static_cast<double>(result.ops));
        });
    if (failure.empty() && !drained) {
      failure = "network did not drain";
    }
    p.unit(name, s, failure.empty() ? "" : name + ": " + failure);
    p.run_s += since(u0);
    mt.add_to(p.trace);
  }
  p.digest = sim::crc32(std::as_bytes(std::span(unit_digest)));
  return p;
}

// ---------------------------------------------------------------------------
// scale and parallel: message rounds on every node, timed at the barrier
// where the last node finishes each round.
// ---------------------------------------------------------------------------

/// What every node does in each round.
struct Traffic {
  std::uint32_t rounds = 1;
  bool all_to_all = false;        // else: to the right-hand neighbour only
  std::uint32_t per_peer = 1;     // messages to each peer per round
  std::uint32_t bytes = 32;       // payload per message
  std::uint32_t compute_ops = 0;  // uncached local stores per round
};

struct RoundsShape {
  sys::Machine::Params machine;
  Traffic traffic;
};

/// Per-node progress, written only by the node's own event domain and
/// read by the benchmark's predicate at epoch boundaries. Padded so
/// worker threads never share a cache line.
struct alignas(64) NodeState {
  std::uint32_t rounds_done = 0;
  std::uint32_t bad_payloads = 0;
};

/// Payload of the k-th message from `src` to `dst`: a (src, k) header,
/// then bytes derived from the seed, so the receiver can check it.
std::vector<std::byte> payload(std::uint64_t seed, std::uint32_t src,
                               std::uint32_t dst, std::uint32_t k,
                               std::uint32_t bytes) {
  std::vector<std::byte> v(bytes);
  std::memcpy(v.data(), &src, 4);
  std::memcpy(v.data() + 4, &k, 4);
  sim::Rng rng(seed ^ (std::uint64_t{src} << 40) ^ (std::uint64_t{dst} << 20) ^
               k);
  for (std::uint32_t i = 8; i < bytes; ++i) {
    v[i] = static_cast<std::byte>(rng.next());
  }
  return v;
}

bool payload_ok(std::uint64_t seed, const msg::Message& m, std::uint32_t self,
                std::uint32_t bytes) {
  if (m.data.size() < bytes) {
    return false;
  }
  std::uint32_t src = 0;
  std::uint32_t k = 0;
  std::memcpy(&src, m.data.data(), 4);
  std::memcpy(&k, m.data.data() + 4, 4);
  if (src != m.src_node) {
    return false;
  }
  const auto want = payload(seed, src, self, k, bytes);
  return std::equal(want.begin(), want.end(), m.data.begin());
}

sim::Co<void> rounds_program(cpu::Processor* ap, msg::Endpoint* ep,
                             msg::AddressMap map, sim::NodeId self,
                             std::uint32_t nodes, Traffic shape,
                             std::uint64_t seed, NodeState* st) {
  constexpr mem::Addr kComputeBase = 0x0010'0000;
  const std::uint32_t peers = shape.all_to_all ? nodes - 1 : 1;
  std::vector<std::uint32_t> sent(peers, 0);  // per peer, by offset - 1
  for (std::uint32_t r = 0; r < shape.rounds; ++r) {
    for (std::uint32_t i = 1; i <= peers; ++i) {
      const auto dst = static_cast<sim::NodeId>((self + i) % nodes);
      for (std::uint32_t j = 0; j < shape.per_peer; ++j) {
        co_await ep->send(map.user0(dst), payload(seed, self, dst,
                                                  sent[i - 1]++, shape.bytes));
      }
    }
    for (std::uint32_t i = 0; i < shape.compute_ops; ++i) {
      const mem::Addr slot = (r * shape.compute_ops + i) % 512;
      co_await ap->store_scalar<std::uint64_t>(kComputeBase + slot * 64, slot,
                                               /*cached=*/false);
    }
    for (std::uint32_t i = 0; i < peers * shape.per_peer; ++i) {
      const msg::Message m = co_await ep->recv();
      if (!payload_ok(seed, m, self, shape.bytes)) {
        ++st->bad_payloads;
      }
    }
    st->rounds_done = r + 1;
  }
}

Pass rounds_pass(const RoundsShape& shape, std::uint64_t seed, Spans& spans,
                 bool machine_trace) {
  Pass p;
  MachineTrace mt;
  const auto t0 = Clock::now();
  sys::Machine m(shape.machine);
  spans.add("sys.construct", since(t0));
  if (machine_trace) {
    mt.attach(m);
  }
  const auto n = static_cast<std::uint32_t>(m.size());
  const auto map = m.addr_map();
  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  eps.reserve(n);
  std::vector<NodeState> st(n);
  for (sim::NodeId i = 0; i < n; ++i) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        m.node(i).ap(), m.node(i).endpoint_config()));
  }
  for (sim::NodeId i = 0; i < n; ++i) {
    m.node(i).ap().run(rounds_program(&m.node(i).ap(), eps[i].get(), map, i,
                                      n, shape.traffic, seed, &st[i]));
  }
  p.setup_s = since(t0);

  const auto t1 = Clock::now();
  for (std::uint32_t r = 0; r < shape.traffic.rounds; ++r) {
    std::uint32_t cursor = 0;  // rounds_done only grows: scan each node once
    const auto u0 = Clock::now();
    const bool ok = drive(
        m,
        [&] {
          while (cursor < n && st[cursor].rounds_done > r) {
            ++cursor;
          }
          return cursor == n;
        },
        100 * sim::kMillisecond, p, spans);
    const std::string label = "round" + std::to_string(r);
    p.unit(label, since(u0), ok ? "" : label + " timed out");
    if (!ok) {
      break;
    }
  }
  std::uint64_t bad = 0;
  for (const auto& s : st) {
    bad += s.bad_payloads;
  }
  if (bad != 0) {
    p.fail_all(std::to_string(bad) + " message payloads corrupted");
  }
  if (!finish_machine(m, p, spans, &p.digest)) {
    p.fail_all("network did not drain");
  }
  p.run_s = since(t1);
  mt.add_to(p.trace);
  return p;
}

RoundsShape scale_shape(bool tiny) {
  RoundsShape s;
  s.machine = machine_params(tiny ? 64 : 1024);
  s.machine.node.dram_size = 8ull * 1024 * 1024;
  s.machine.node.scoma_size = 1ull * 1024 * 1024;
  s.machine.node.numa_backing_size = 8ull * 1024 * 1024;
  s.traffic.rounds = tiny ? 2 : 12;
  s.traffic.per_peer = 1;
  s.traffic.bytes = 32;
  return s;
}

RoundsShape parallel_shape(bool tiny, unsigned threads) {
  RoundsShape s;
  s.machine = machine_params(tiny ? 8 : 32);
  s.machine.net = sys::Machine::NetKind::kIdeal;
  s.machine.ideal_latency = 16 * sim::kMicrosecond;
  s.machine.threads = threads;
  s.traffic.rounds = tiny ? 3 : 24;
  s.traffic.all_to_all = true;
  s.traffic.bytes = 64;
  s.traffic.compute_ops = 8;
  return s;
}

// ---------------------------------------------------------------------------
// Options and the run of one workload.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 3;
  bool tiny = false;
  std::string rev = "unknown";
};

struct Workload {
  const char* cache_state;
  std::function<Pass(std::uint64_t seed, Spans&, bool machine_trace)> pass;
};

Workload make_workload(const Options& o) {
  const bool tiny = o.tiny;
  if (o.workload == "fig4") {
    return {"empty: each pass builds a fresh 2-node machine; its transfers "
            "then run back to back, later ones on caches the earlier ones "
            "warmed",
            [tiny](std::uint64_t seed, Spans& s, bool t) {
              return fig4_pass(tiny, seed, s, t);
            }};
  }
  if (o.workload == "apps") {
    return {"empty: every app run gets a fresh machine and World",
            [tiny](std::uint64_t seed, Spans& s, bool t) {
              return apps_pass(tiny, seed, s, t);
            }};
  }
  if (o.workload == "scale") {
    const RoundsShape shape = scale_shape(tiny);
    return {"empty: each pass builds a fresh machine whose lazy per-node "
            "state fills during the rounds",
            [shape](std::uint64_t seed, Spans& s, bool t) {
              return rounds_pass(shape, seed, s, t);
            }};
  }
  if (o.workload == "parallel") {
    const RoundsShape shape = parallel_shape(tiny, o.threads);
    return {"empty: each pass builds a fresh partitioned machine",
            [shape](std::uint64_t seed, Spans& s, bool t) {
              return rounds_pass(shape, seed, s, t);
            }};
  }
  throw std::invalid_argument("unknown workload '" + o.workload +
                              "' (fig4, apps, scale, parallel)");
}

/// The probe's time on the recording host when it is quiet.
constexpr double kProbeReferenceS = 0.010;

/// Host speed right now: the time of a fixed loop of random
/// read-modify-writes over a 4 MiB table, with no simulator code in it.
/// The recording host is a shared VM that slows all work by up to 1.8x in
/// phases lasting seconds. Scaling each pass by kProbeReferenceS / probe,
/// timed just before it, cancels most of that: end-to-end times read as
/// seconds on the quiet recording host.
///
/// One untimed sweep over the table comes before the clock starts, so the
/// timed loop always finds the table cached, whatever the pass before it
/// left in the host caches: the code under test cannot move the probe.
volatile std::uint32_t g_probe_sink = 0;  // keeps the probe loop observable

double host_speed_probe() {
  static std::vector<std::uint32_t> table(std::size_t{1} << 20);
  for (auto& v : table) {
    g_probe_sink = v;
  }
  const auto t0 = Clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < 4'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 40) & (table.size() - 1)] += static_cast<std::uint32_t>(x);
  }
  const double s = since(t0);
  g_probe_sink = table[x & (table.size() - 1)];
  return s;
}

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + json_number(v[i]);
  }
  return out + "]";
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

std::vector<double> collect(const std::vector<Pass>& passes,
                            double Pass::*field) {
  std::vector<double> v;
  for (const auto& p : passes) {
    v.push_back(p.*field);
  }
  return v;
}

/// End-to-end metrics. With `normalize` each pass's times are scaled to
/// the quiet recording host (see host_speed_probe); without, they are raw.
std::vector<Metric> end_to_end(const std::vector<Pass>& passes, double rss_mb,
                               bool normalize) {
  std::vector<double> setup;
  std::vector<double> run;
  std::vector<double> units;
  for (const auto& p : passes) {
    const double k = normalize ? kProbeReferenceS / p.probe_s : 1.0;
    setup.push_back(p.setup_s * k);
    run.push_back(p.run_s * k);
    for (const double u : p.unit_ms) {
      units.push_back(u * k);
    }
  }
  return {
      {"setup_s", median(setup), "s"},
      {"run_s", median(run), "s"},
      {"unit_ms_p50", quantile(units, 0.5), "ms"},
      {"unit_ms_p90", quantile(units, 0.9), "ms"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
}

std::vector<Metric> per_layer(const std::vector<Pass>& plain,
                              const std::vector<Pass>& traced,
                              const Spans& spans) {
  const Pass& p = plain.front();  // simulated counts repeat in every pass
  const Model& md = p.model;
  const double run_s = median(collect(plain, &Pass::run_s));
  const double traced_run_s = median(collect(traced, &Pass::run_s));
  const auto us_per_kib = [&spans](int a) {
    const std::string n = "xfer.a" + std::to_string(a);
    return ratio(spans.sum(n) * 1e6, spans.sum(n + ".kib"));
  };
  const auto nodes_mean = [&md](double total) { return ratio(total, md.nodes); };
  const Pass& t = traced.front();
  std::vector<Metric> ms = {
      {"sys.construct_s", median(spans.get("sys.construct")), "s"},
      {"sys.collect_stats_s", median(spans.get("sys.collect_stats")), "s"},
      {"sys.pred_calls", static_cast<double>(p.pred_calls), "count"},
      {"sim.events_executed", md.events_executed, "count"},
      {"sim.events_scheduled", md.events_scheduled, "count"},
      {"sim.bypass_ratio",
       1.0 - ratio(md.events_executed, md.events_scheduled), "ratio"},
      {"sim.host_ns_per_event", ratio(run_s * 1e9, md.events_executed),
       "ns"},
      {"parallel.epochs", static_cast<double>(p.epochs), "count"},
      {"parallel.epoch_us_p50", quantile(spans.epoch_s, 0.5) * 1e6, "us"},
      {"parallel.epoch_us_p90", quantile(spans.epoch_s, 0.9) * 1e6, "us"},
      {"parallel.imbalance", md.imbalance, "ratio"},
      {"xfer.a1_us_per_kib", us_per_kib(1), "us/KiB"},
      {"xfer.a2_us_per_kib", us_per_kib(2), "us/KiB"},
      {"xfer.a3_us_per_kib", us_per_kib(3), "us/KiB"},
      {"app.msg_ms", median(spans.get("app.msg")) * 1e3, "ms"},
      {"app.shm_ms", median(spans.get("app.shm")) * 1e3, "ms"},
      {"app.reliable_ms", median(spans.get("app.reliable")) * 1e3, "ms"},
      {"app.ops", md.app_ops, "count"},
      {"app.frames_per_msg", ratio(md.app_frames, md.app_msgs), "ratio"},
      {"mem.bus_transactions", md.bus_transactions, "count"},
      {"mem.bus_retry_ratio", ratio(md.bus_retries, md.bus_transactions),
       "ratio"},
      {"mem.bus_data_occupancy", nodes_mean(md.bus_occupancy), "ratio"},
      {"mem.cache_hit_ratio", ratio(md.cache_hits, md.cache_accesses),
       "ratio"},
      {"cpu.ap_busy_us", md.ap_busy_us, "sim_us"},
      {"cpu.sp_busy_us", md.sp_busy_us, "sim_us"},
      {"niu.msgs_launched", md.msgs_launched, "count"},
      {"niu.block_ops", md.block_ops, "count"},
      {"niu.rx_miss_ratio", ratio(md.rx_misses, md.rx_hits + md.rx_misses),
       "ratio"},
      {"niu.ibus_occupancy", nodes_mean(md.ibus_occupancy), "ratio"},
      {"fw.scoma_misses", md.scoma_misses, "count"},
      {"fw.numa_remote_ops", md.numa_remote_ops, "count"},
      {"fw.miss_serviced", md.miss_serviced, "count"},
      {"net.packets_delivered", md.packets_delivered, "count"},
      {"net.mean_transit_us", ratio(md.transit_us_total, md.packets_delivered),
       "sim_us"},
      {"net.drop_ratio", ratio(md.packets_dropped, md.packets_injected),
       "ratio"},
      {"trace.overhead_x", ratio(traced_run_s, run_s), "x"},
      {"trace.records", static_cast<double>(t.trace.records), "count"},
  };
  for (std::size_t c = 0; c < kTraceCategories.size(); ++c) {
    ms.push_back({"trace.span_us." + std::string(kTraceCategories[c]),
                  static_cast<double>(t.trace.span_ps[c]) / 1e6, "sim_us"});
  }
  return ms;
}

int run(const Options& o) {
  const Workload w = make_workload(o);
  Spans off(false);

  // Warm-up: one untimed pass on the default seed, excluded from every
  // metric. It fills host caches and the allocator, and its digest is
  // checked against the pinned one.
  const Pass warm = w.pass(kDefaultSeed, off, false);
  std::uint64_t attempted = warm.units;
  std::uint64_t failed = warm.failed;
  std::string first_failure = warm.first_failure;
  std::uint32_t pinned = 0;
  for (const auto& [name, digest] : kPinnedDigests) {
    if (name == o.workload && !o.tiny) {
      pinned = digest;
    }
  }
  if (pinned != 0 && warm.digest != pinned) {
    failed += warm.units - warm.failed;
    if (first_failure.empty()) {
      first_failure = "warm-up digest " + hex(warm.digest) +
                      " differs from the pinned " + hex(pinned);
    }
  }

  // Timed passes on the run's seed. The traced run alternates passes with
  // spans on and passes under the machine tracer.
  Spans spans(o.trace);
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  // Peak RSS is read after a fixed amount of work (the warm-up and the
  // first timed pass), not at the end: machine teardown does not return
  // all its memory, so the end-of-run peak grows with the pass count.
  double rss_mb = 0;
  const auto start = Clock::now();
  do {
    const double probe = host_speed_probe();
    plain.push_back(w.pass(o.seed, spans, false));
    plain.back().probe_s = probe;
    if (plain.size() == 1) {
      rss_mb = peak_rss_mb();
    }
    if (o.trace) {
      traced.push_back(w.pass(o.seed, off, true));
    }
  } while (since(start) < o.seconds);

  // Every pass repeats the first one's statistics exactly. Traced passes
  // are compared among themselves: the machine tracer switches the model's
  // fast paths off, and those do not leave every app statistic unchanged.
  const std::uint32_t digest = plain.front().digest;
  const std::uint32_t traced_digest = traced.empty() ? 0 : traced.front().digest;
  for (auto* passes : {&plain, &traced}) {
    for (Pass& p : *passes) {
      const std::uint32_t want = passes == &plain ? digest : traced_digest;
      if (p.digest != want) {
        p.fail_all("pass digest " + hex(p.digest) + " differs from the " +
                   "run's first pass " + hex(want));
      }
      attempted += p.units;
      failed += p.failed;
      if (first_failure.empty()) {
        first_failure = p.first_failure;
      }
    }
  }

  const std::vector<Metric> metrics =
      o.trace ? per_layer(plain, traced, spans)
              : end_to_end(plain, rss_mb, /*normalize=*/true);
  std::map<std::string, std::vector<double>> by_label;
  const std::vector<double> run_s = collect(plain, &Pass::run_s);
  std::size_t units = 0;
  for (const auto& p : plain) {
    units += p.units;
    for (std::size_t i = 0; i < p.unit_ms.size(); ++i) {
      by_label[p.unit_labels[i]].push_back(p.unit_ms[i]);
    }
  }

  std::printf("svbench %s seed=%llu size=%s%s: %zu passes, %zu timed units\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.tiny ? "tiny" : "full", o.trace ? " traced" : "",
              plain.size(), units);
  for (const auto& m : metrics) {
    std::printf("  %-24s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (failed != 0) {
    std::printf("  FAILED %llu of %llu units; first: %s\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                first_failure.c_str());
  }

  // The ledger line: everything needed to rerun and compare this result.
  std::string unit_medians = "{";
  for (const auto& [label, ms] : by_label) {
    unit_medians += (unit_medians.size() > 1 ? ", " : "") +
                    json_string(label) + ": " + json_number(median(ms));
  }
  unit_medians += "}";
  std::string unit_order = "[";
  for (const auto& label : plain.front().unit_labels) {
    unit_order += (unit_order.size() > 1 ? ", " : "") + json_string(label);
  }
  unit_order += "]";
  const std::pair<const char*, std::string> fields[] = {
      {"cpu", json_string(cpu_model())},
      {"nproc", std::to_string(nproc())},
      {"compiler", json_string(kCompiler)},
      {"build_type", json_string(SVBENCH_BUILD_TYPE)},
      {"rev", json_string(o.rev)},
      {"workload", json_string(o.workload)},
      {"seed", std::to_string(o.seed)},
      {"size", json_string(o.tiny ? "tiny" : "full")},
      {"threads", std::to_string(o.workload == "parallel" ? o.threads : 0)},
      {"seconds", json_number(o.seconds)},
      {"passes", std::to_string(plain.size())},
      {"timed_units", std::to_string(units)},
      {"unit_order", unit_order},
      {"pass_run_s", json_list(run_s)},
      {"pass_setup_s", json_list(collect(plain, &Pass::setup_s))},
      {"pass_probe_s", json_list(collect(plain, &Pass::probe_s))},
      {"raw_metrics",
       metrics_json(end_to_end(plain, rss_mb, /*normalize=*/false))},
      {"digest", json_string(hex(digest))},
      {"traced_digest",
       traced.empty() ? "null" : json_string(hex(traced_digest))},
      {"warmup_digest", json_string(hex(warm.digest))},
      {"pinned_digest", pinned != 0 ? json_string(hex(pinned)) : "null"},
      {"peak_rss_mb_at_end", json_number(peak_rss_mb())},
      {"caches", json_string(w.cache_state)},
      {"warmup", json_string("one untimed pass on the default seed runs "
                             "first and is excluded from every metric")},
      {"unit_ms_median", unit_medians},
      {"metrics", metrics_json(metrics)},
  };
  std::string ledger = "{";
  for (const auto& [key, value] : fields) {
    ledger += (ledger.size() > 1 ? ", " : "") + json_string(key) + ": " + value;
  }
  std::printf("ledger %s}\n", ledger.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "svbench: %s\nusage: svbench --workload fig4|apps|scale|"
               "parallel --seed N --seconds S --trace 0|1 [--threads T] "
               "[--size full|tiny] [--rev R]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  bool have_threads = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(flag + " needs a value");
    }
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds >= 0 && o.seconds <= 120)) {
        usage("--seconds needs a number in [0, 120], got '" + v + "'");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        usage("--trace needs 0 or 1, got '" + v + "'");
      }
      o.trace = v == "1";
      have_trace = true;
    } else if (flag == "--threads") {
      const std::uint64_t t = parse_uint(flag, v);
      if (t > 64) {
        usage("--threads must be at most 64");
      }
      o.threads = static_cast<unsigned>(t);
      have_threads = true;
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") {
        usage("--size needs full or tiny, got '" + v + "'");
      }
      o.tiny = v == "tiny";
    } else if (flag == "--rev") {
      o.rev = v;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (have_threads && o.workload != "parallel") {
    usage("--threads applies to the parallel workload only");
  }
  return o;
}

}  // namespace
}  // namespace sv::svbench

int main(int argc, char** argv) {
  const auto options = sv::svbench::parse(argc, argv);
  try {
    return sv::svbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svbench: %s\n", e.what());
    return 1;
  }
}
