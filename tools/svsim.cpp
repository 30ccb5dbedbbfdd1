// svsim: command-line driver for the simulated StarT-Voyager machine.
//
// Runs a parameterized workload and dumps machine-wide statistics —
// the quickest way to poke at configuration questions ("what does the bus
// occupancy look like at 8 nodes?", "how many bus retries does a racing
// S-COMA consumer cause?") without writing a program.
//
// Usage:
//   svsim <workload> [key=value ...]
//
// Workloads:
//   msg       all-to-all Basic messaging       (nodes, count, bytes)
//   express   all-to-all Express messaging     (nodes, count)
//   xfer      block transfer                   (approach, bytes)
//   dma       DMA write                        (bytes)
//   scoma     random shared-memory traffic     (nodes, ops, words, seed)
//   numa      random NUMA traffic              (nodes, ops, words, seed)
//   reliable  ring traffic over ReliableChannel (nodes, count, bytes,
//             window, timeout_us, give_up)
//
// Application runtime workloads (src/app/): real parallel programs run
// through the SMPI-style World/Comm API over a selectable transport.
// App keys: ranks=N (0 = one per node) transport=msg|shm|reliable
//   app.shm=numa|scoma; the reliable transport honors window/timeout_us/
//   give_up like the `reliable` workload.
//   app.stencil    Jacobi halo exchange    (nx, ny, iters, point_cycles)
//   app.allreduce  ring-allreduce sweep    (min_elems, max_elems, iters)
//   app.kv         key-value request/reply (servers, requests, keys,
//                  value_bytes, seed, op_cycles)
//
// Common keys: nodes=N net=fattree|ideal radix=K stats=0|1
//   stats_format=text|json deadline_ms=N trace=FILE trace_buf=N
//   trace_stream=FILE (stream Chrome JSON incrementally: bounded memory
//   for arbitrarily long traces, no ring overwrites in the file;
//   sequential machines only — a partitioned run has no global record
//   order until the merge)
//
// Parallel execution: threads=N partitions the machine into one event
// domain per node on N worker threads (results are bit-identical to
// threads=0). Partitioning needs the ideal network, so threads>0 defaults
// net=ideal; combining threads>0 with net=fattree is an error. The xfer
// workload drives the machine through a sequential-only harness and
// rejects threads>0.
//
// Fault injection (all workloads): fault.drop_rate=P fault.corrupt_rate=P
//   fault.link_down_rate=P fault.router_stall_rate=P fault.starve_rate=P
//   fault.rx_overflow_rate=P fault.seed=N (see fault::Plan::from_config).
//   Unreliable workloads will typically time out or hang under drops; the
//   `reliable` workload and reliable-transport app.* workloads recover.
//
// Checkpointing (DESIGN.md §14):
//   --checkpoint-at=TICK [--checkpoint-out=FILE]   snapshot at the first
//       epoch boundary at/after TICK (picoseconds), then keep running
//   --checkpoint-every=TICKS [--checkpoint-out=PREFIX]   periodic
//       snapshots PREFIX.<tick>.svck — the raw material for bisecting a
//       failing tick range (EXPERIMENTS.md Ext-Q)
//   --restore=FILE   rebuild the run from the snapshot's embedded config,
//       replay to its capture tick, byte-verify every component chunk
//       against the file, then continue to completion. Extra key=value
//       args are rejected: the snapshot is the configuration.
//   (key=value spellings ckpt.at / ckpt.every / ckpt.out also work.)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/apps.hpp"
#include "ckpt/capture.hpp"
#include "msg/dma.hpp"
#include "msg/reliable.hpp"
#include "shm/numa_region.hpp"
#include "shm/scoma_region.hpp"
#include "sim/config.hpp"
#include "sim/random.hpp"
#include "sys/stats_dump.hpp"
#include "trace/chrome_sink.hpp"
#include "xfer/approaches.hpp"

using namespace sv;

namespace {

sys::Machine::Params machine_params(const sim::Config& cfg) {
  sys::Machine::Params p;
  p.nodes = cfg.get_u64("nodes", 2);
  p.radix = static_cast<unsigned>(cfg.get_u64("radix", 4));
  p.threads = static_cast<unsigned>(cfg.get_u64("threads", 0));
  p.net = cfg.get_string("net", p.threads > 0 ? "ideal" : "fattree") ==
                  "ideal"
              ? sys::Machine::NetKind::kIdeal
              : sys::Machine::NetKind::kFatTree;
  p.node.dram_size = cfg.get_u64("dram_mb", 16) * 1024 * 1024;
  p.node.scoma_size = cfg.get_u64("scoma_mb", 2) * 1024 * 1024;
  p.node.enable_scoma = cfg.get_bool("scoma", true);
  p.fault = fault::Plan::from_config(cfg);
  return p;
}

/// Reject a well-formed value a driver cannot run: one line naming the
/// key. main() maps std::invalid_argument to exit status 2, as it does for
/// malformed numbers, which Config's typed getters reject.
void require(bool ok, const std::string& key, const std::string& why) {
  if (!ok) {
    throw std::invalid_argument(key + ": " + why);
  }
}

/// Drivers that move data from node 0 to node 1 (or all-to-all) cannot run
/// on a single node.
void require_two_nodes(const sys::Machine& machine, const char* workload) {
  require(machine.size() >= 2, "nodes",
          std::string(workload) + " needs at least 2 nodes, got " +
              std::to_string(machine.size()));
}

/// The workload-driver boilerplate every run_* repeats, factored out: the
/// per-node completion flags (one per node so each is only ever written by
/// the domain that owns that node — the pattern that keeps every workload
/// valid under threads=N), the run-until-deadline loop with its timeout
/// diagnostic, elapsed-simulated-time reporting, and the stats dump —
/// which lives here so workloads with extra counters (the app runtime)
/// can append them while the owning objects are still alive.
class Harness {
 public:
  Harness(sys::Machine& machine, const sim::Config& cfg)
      : machine_(machine), cfg_(cfg), done_(machine.size(), 0) {}

  [[nodiscard]] sys::Machine& machine() { return machine_; }
  [[nodiscard]] std::uint8_t* done_flag(sim::NodeId n) { return &done_[n]; }

  /// Drive the machine until every per-node done flag is set.
  bool drive() {
    return drive([this] {
      for (const auto f : done_) {
        if (f == 0) {
          return false;
        }
      }
      return true;
    });
  }

  /// App workloads register their World so its runtime state rides along
  /// in every capture; restore mode registers the loaded snapshot so the
  /// replay is byte-verified at the capture tick.
  void set_world(const app::World* world) { world_ = world; }
  void set_restore(const ckpt::Snapshot* snap) { restore_ = snap; }
  void set_workload(std::string name) { workload_ = std::move(name); }

  /// Drive the machine until `ready`; on deadline expiry prints the
  /// timeout diagnostic and returns false. Pauses at every scheduled
  /// checkpoint/verify tick on the way (epoch boundaries, so the pause
  /// points — and the snapshots — are identical for every threads=).
  bool drive(const std::function<bool()>& ready) {
    t0_ = machine_.now();
    const sim::Tick deadline =
        machine_.now() +
        cfg_.get_u64("deadline_ms", 2000) * sim::kMillisecond;

    const auto at = cfg_.get_u64("ckpt.at", 0);
    const auto every = cfg_.get_u64("ckpt.every", 0);
    sim::Tick next_save = at != 0 ? at : (every != 0 ? every : 0);
    sim::Tick verify_at = restore_ != nullptr ? restore_->tick : 0;

    while (true) {
      sim::Tick stop = 0;  // 0 = no pause pending
      if (next_save != 0) {
        stop = next_save;
      }
      if (verify_at != 0 && (stop == 0 || verify_at < stop)) {
        stop = verify_at;
      }
      if (stop == 0) {
        break;
      }
      machine_.run_epochs_until(
          [&] { return ready() || machine_.now() >= stop; }, deadline);
      if (machine_.now() < stop) {
        break;  // workload finished (or deadline hit) before the tick
      }
      if (verify_at != 0 && machine_.now() >= verify_at) {
        try {
          ckpt::Snapshot::verify(*restore_, capture());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "svsim: restore verify FAILED: %s\n",
                       e.what());
          return false;
        }
        std::printf("restore: replayed to tick %llu, %zu chunks verified "
                    "byte-identical\n",
                    static_cast<unsigned long long>(restore_->tick),
                    restore_->chunks().size());
        verify_at = 0;
      }
      if (next_save != 0 && machine_.now() >= next_save) {
        save_checkpoint();
        next_save = every != 0 ? machine_.now() + every : 0;
      }
    }

    if (!sys::run_until(machine_, ready, deadline)) {
      std::fprintf(stderr, "svsim: timed out\n");
      return false;
    }
    return true;
  }

  /// The run configuration a snapshot embeds: the workload name plus every
  /// key=value except the ckpt.* directives themselves (a restored run
  /// must not re-checkpoint).
  [[nodiscard]] std::string config_text() const {
    std::string out = "workload=" + workload_ + "\n";
    for (const auto& [key, value] : cfg_.all()) {
      if (key.rfind("ckpt.", 0) == 0) {
        continue;
      }
      out += key + "=" + value + "\n";
    }
    return out;
  }

  [[nodiscard]] ckpt::Snapshot capture() const {
    return ckpt::capture(machine_, config_text(), world_);
  }

  void save_checkpoint() const {
    const auto every = cfg_.get_u64("ckpt.every", 0);
    std::string path = cfg_.get_string("ckpt.out", "svsim.svck");
    if (every != 0) {
      path += "." + std::to_string(machine_.now()) + ".svck";
    }
    const ckpt::Snapshot snap = capture();
    snap.save_file(path);
    std::printf("checkpoint: tick %llu, %zu chunks -> %s\n",
                static_cast<unsigned long long>(snap.tick),
                snap.chunks().size(), path.c_str());
  }

  /// Simulated microseconds between the last drive() start and now.
  [[nodiscard]] double elapsed_us() const {
    return static_cast<double>(machine_.now() - t0_) / 1e6;
  }

  /// Honor stats=0|1 / stats_format=text|json, letting the caller append
  /// extra counters to the registry first. Idempotent: the first call
  /// (typically from a workload that has extra counters to add) wins and
  /// the fallback call in main() becomes a no-op.
  void dump_stats(
      const std::function<void(sim::StatRegistry&)>& extra = nullptr) {
    if (stats_dumped_ || !cfg_.get_bool("stats", false)) {
      return;
    }
    stats_dumped_ = true;
    auto reg = sys::collect_stats(machine_);
    if (extra) {
      extra(reg);
    }
    if (cfg_.get_string("stats_format", "text") == "json") {
      reg.dump_json(std::cout);
    } else {
      std::printf("\n--- machine statistics ---\n");
      reg.dump(std::cout);
    }
  }

 private:
  sys::Machine& machine_;
  const sim::Config& cfg_;
  std::vector<std::uint8_t> done_;
  sim::Tick t0_ = 0;
  bool stats_dumped_ = false;
  std::string workload_;
  const app::World* world_ = nullptr;
  const ckpt::Snapshot* restore_ = nullptr;
};

int run_msg(Harness& h, const sim::Config& cfg, bool express) {
  sys::Machine& machine = h.machine();
  const auto count = cfg.get_u64("count", 100);
  const auto bytes = cfg.get_u64("bytes", 32);
  require_two_nodes(machine, express ? "express" : "msg");
  const auto map = machine.addr_map();

  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(n).ap(), machine.node(n).endpoint_config()));
  }

  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](msg::Endpoint* ep, msg::AddressMap map, sim::NodeId self,
           std::size_t nodes, std::uint64_t count, std::uint64_t bytes,
           bool express_, std::uint8_t* d) -> sim::Co<void> {
          std::vector<std::byte> payload(bytes);
          for (std::uint64_t i = 0; i < count; ++i) {
            const auto dst =
                static_cast<sim::NodeId>((self + 1 + i % (nodes - 1)) %
                                         nodes);
            if (express_) {
              co_await ep->send_express(
                  static_cast<std::uint8_t>(map.express(dst)), 0,
                  static_cast<std::uint32_t>(i));
            } else {
              co_await ep->send(map.user0(dst), payload);
            }
          }
          for (std::uint64_t i = 0; i < count; ++i) {
            if (express_) {
              (void)co_await ep->recv_express();
            } else {
              (void)co_await ep->recv();
            }
          }
          *d = 1;
        }(eps[n].get(), map, n, machine.size(), count, bytes, express,
          h.done_flag(n)));
  }
  if (!h.drive()) {
    return 1;
  }
  const double us = h.elapsed_us();
  const double total_bytes =
      static_cast<double>(machine.size() * count * (express ? 5 : bytes));
  std::printf("%s all-to-all: %zu nodes x %llu msgs in %.1f us "
              "(%.1f MB/s aggregate payload)\n",
              express ? "express" : "basic", machine.size(),
              static_cast<unsigned long long>(count), us,
              total_bytes / us);
  return 0;
}

int run_xfer(sys::Machine& machine, const sim::Config& cfg) {
  if (machine.partitioned()) {
    std::fprintf(stderr,
                 "svsim: the xfer harness is sequential-only; rerun "
                 "without threads=\n");
    return 2;
  }
  const auto approach_key = cfg.get_u64("approach", 3);
  require(approach_key >= 1 && approach_key <= 5, "approach",
          "expected 1..5, got " + std::to_string(approach_key));
  require_two_nodes(machine, "xfer");
  const int approach = static_cast<int>(approach_key);
  const auto bytes = static_cast<std::uint32_t>(cfg.get_u64("bytes", 16384));
  xfer::BlockTransferHarness harness(machine);
  xfer::TransferSpec spec;
  spec.src = 0x0010'0000;
  spec.dst = approach >= 4 ? niu::kScomaBase + 0x8000 : 0x0040'0000;
  spec.len = bytes;
  xfer::RunOptions opt;
  opt.consume = cfg.get_bool("consume", approach >= 4);
  const auto res = harness.run(approach, spec, opt);
  std::printf("approach %d, %u bytes: notify %.2f us (%.1f MB/s)%s, "
              "tx aP %.2f us / tx sP %.2f us / rx sP %.2f us, %s\n",
              approach, bytes,
              static_cast<double>(res.latency()) / 1e6,
              res.bandwidth_mbps(bytes),
              opt.consume
                  ? (", consumed " +
                     std::to_string(
                         static_cast<double>(res.consume_time - res.start) /
                         1e6) +
                     " us")
                        .c_str()
                  : "",
              static_cast<double>(res.sender_ap_busy) / 1e6,
              static_cast<double>(res.sender_sp_busy) / 1e6,
              static_cast<double>(res.receiver_sp_busy) / 1e6,
              res.ok ? "verified" : "VERIFY FAILED");
  return res.ok ? 0 : 1;
}

int run_dma(Harness& h, const sim::Config& cfg) {
  sys::Machine& machine = h.machine();
  const auto bytes = static_cast<std::uint32_t>(cfg.get_u64("bytes", 65536));
  require_two_nodes(machine, "dma");
  auto ep0 = machine.node(0).make_endpoint();
  auto ep1 = machine.node(1).make_endpoint();
  bool got = false;
  machine.node(0).ap().run(
      [](msg::Endpoint* ep, msg::AddressMap map,
         std::uint32_t n) -> sim::Co<void> {
        co_await msg::dma_write(*ep, map, 0, 1, 0x100000, 0x200000, n,
                                msg::AddressMap::kUser0L, 1);
      }(&ep0, machine.addr_map(), bytes));
  machine.node(1).ap().run(
      [](msg::Endpoint* ep, bool* d) -> sim::Co<void> {
        (void)co_await ep->recv();
        *d = true;
      }(&ep1, &got));
  if (!h.drive([&] { return got; })) {
    return 1;
  }
  const double us = h.elapsed_us();
  std::printf("dma: %u bytes in %.1f us = %.1f MB/s\n", bytes, us,
              static_cast<double>(bytes) / us);
  return 0;
}

msg::ReliableChannel::Params reliable_params(const sim::Config& cfg) {
  msg::ReliableChannel::Params cp;
  cp.window = cfg.get_u64("window", 16);
  cp.retransmit.base_timeout =
      cfg.get_u64("timeout_us", 50) * sim::kMicrosecond;
  cp.retransmit.give_up_after =
      static_cast<unsigned>(cfg.get_u64("give_up", 8));
  return cp;
}

int run_reliable(Harness& h, const sim::Config& cfg) {
  sys::Machine& machine = h.machine();
  const auto count = cfg.get_u64("count", 100);
  const auto bytes = std::min<std::uint64_t>(
      cfg.get_u64("bytes", 64), msg::ReliableChannel::kMaxPayload);
  const auto map = machine.addr_map();
  const auto cp = reliable_params(cfg);

  std::vector<std::unique_ptr<msg::Endpoint>> eps;
  std::vector<std::unique_ptr<msg::ReliableChannel>> chans;
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    eps.push_back(std::make_unique<msg::Endpoint>(
        machine.node(n).ap(), machine.node(n).endpoint_config()));
    chans.push_back(
        std::make_unique<msg::ReliableChannel>(*eps[n], map, n, cp));
    chans[n]->set_give_up([&machine, n](sim::NodeId peer) {
      std::fprintf(stderr, "svsim: n%u gave up on peer n%u\n", n, peer);
      machine.node(n).niu().ctrl().shutdown_tx_queue(sys::Node::kTxUser0);
    });
    chans[n]->start();
  }

  // Ring traffic: every node streams `count` payloads to its right
  // neighbour and consumes `count` from its left.
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](msg::ReliableChannel* ch, sim::NodeId self, std::size_t nodes,
           std::uint64_t count_, std::uint64_t bytes_,
           std::uint8_t* d) -> sim::Co<void> {
          const auto right = static_cast<sim::NodeId>((self + 1) % nodes);
          const auto left =
              static_cast<sim::NodeId>((self + nodes - 1) % nodes);
          for (std::uint64_t i = 0; i < count_; ++i) {
            std::vector<std::byte> payload(bytes_);
            for (std::size_t b = 0; b < payload.size(); ++b) {
              payload[b] = static_cast<std::byte>(self + i + b);
            }
            co_await ch->send(right, payload);
          }
          for (std::uint64_t i = 0; i < count_; ++i) {
            (void)co_await ch->recv(left);
          }
          *d = 1;
        }(chans[n].get(), n, machine.size(), count, bytes, h.done_flag(n)));
  }

  if (!h.drive()) {
    return 1;
  }
  const double us = h.elapsed_us();
  std::uint64_t retx = 0;
  std::uint64_t corrupt = 0;
  for (auto& ch : chans) {
    retx += ch->stats().retransmitted.value();
    corrupt += ch->stats().corrupt_rejected.value();
  }
  const auto audit = machine.network().audit();
  std::printf(
      "reliable ring: %zu nodes x %llu msgs x %llu B in %.1f us "
      "(%.1f MB/s payload), %llu retransmits, %llu crc rejects, "
      "%llu/%llu packets dropped\n",
      machine.size(), static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(bytes), us,
      static_cast<double>(machine.size() * count * bytes) / us,
      static_cast<unsigned long long>(retx),
      static_cast<unsigned long long>(corrupt),
      static_cast<unsigned long long>(audit.dropped),
      static_cast<unsigned long long>(audit.injected));
  return 0;
}

int run_shm(Harness& h, const sim::Config& cfg, bool scoma) {
  sys::Machine& machine = h.machine();
  const auto ops = cfg.get_u64("ops", 200);
  const auto words = cfg.get_u64("words", 16);
  const auto seed = cfg.get_u64("seed", 42);

  // One driver per node, each with its own seed-derived access stream over
  // the same shared words: the contention is cross-node (that is what the
  // coherence protocols exist for) while every coroutine stays inside the
  // domain that owns its processor, so the workload is valid — and
  // bit-identical — at every threads= value. `ops` counts per node.
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    machine.node(n).ap().run(
        [](sys::Node* node, std::uint64_t ops_, std::uint64_t words_,
           std::uint64_t seed_, bool scoma_,
           std::uint8_t* d) -> sim::Co<void> {
          sim::Rng rng(seed_);
          shm::ScomaRegion sc(node->ap());
          shm::NumaRegion nm(node->ap());
          for (std::uint64_t i = 0; i < ops_; ++i) {
            const mem::Addr off = 0x1000 + rng.below(words_) * 64;
            if (scoma_) {
              if (rng.chance(0.5)) {
                co_await sc.store<std::uint32_t>(
                    off, static_cast<std::uint32_t>(i));
              } else {
                (void)co_await sc.load<std::uint32_t>(off);
              }
            } else {
              if (rng.chance(0.5)) {
                co_await nm.store<std::uint32_t>(
                    off, static_cast<std::uint32_t>(i));
              } else {
                (void)co_await nm.load<std::uint32_t>(off);
              }
            }
          }
          *d = 1;
        }(&machine.node(n), ops, words,
          seed ^ (0x9e3779b97f4a7c15ull * (n + 1)), scoma, h.done_flag(n)));
  }
  if (!h.drive()) {
    return 1;
  }
  std::printf("%s: %llu ops/node over %llu shared words in %.1f us\n",
              scoma ? "scoma" : "numa",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(words), h.elapsed_us());
  return 0;
}

/// app.* workloads: run one of the shipped applications (src/app/apps.hpp)
/// through the SMPI-style runtime over the configured transport.
int run_app(Harness& h, const sim::Config& cfg, const std::string& name) {
  sys::Machine& machine = h.machine();

  app::World::Params wp;
  wp.nranks = cfg.get_u64("ranks", 0);
  const std::string transport = cfg.get_string("transport", "msg");
  if (transport == "msg") {
    wp.transport = app::TransportKind::kMsg;
  } else if (transport == "shm") {
    wp.transport = app::TransportKind::kShm;
  } else if (transport == "reliable") {
    wp.transport = app::TransportKind::kReliable;
  } else {
    std::fprintf(stderr, "svsim: unknown transport '%s'\n",
                 transport.c_str());
    return 2;
  }
  wp.shm_region = cfg.get_string("app.shm", "numa") == "scoma"
                      ? app::ShmTransport::Region::kScoma
                      : app::ShmTransport::Region::kNuma;
  wp.reliable = reliable_params(cfg);

  app::AppResult result;
  app::World::Program program;
  if (name == "app.stencil") {
    app::StencilParams p;
    p.nx = cfg.get_u64("nx", p.nx);
    p.ny = cfg.get_u64("ny", p.ny);
    p.iters = cfg.get_u64("iters", p.iters);
    p.point_cycles = cfg.get_u64("point_cycles", p.point_cycles);
    program = app::make_stencil(p, &result);
  } else if (name == "app.allreduce") {
    app::AllreduceParams p;
    p.min_elems = cfg.get_u64("min_elems", p.min_elems);
    p.max_elems = cfg.get_u64("max_elems", p.max_elems);
    p.iters = cfg.get_u64("iters", p.iters);
    program = app::make_allreduce_sweep(p, &result);
  } else if (name == "app.kv") {
    app::KvParams p;
    p.servers = cfg.get_u64("servers", p.servers);
    p.requests = cfg.get_u64("requests", p.requests);
    p.keys = cfg.get_u64("keys", p.keys);
    p.value_bytes = cfg.get_u64("value_bytes", p.value_bytes);
    p.seed = cfg.get_u64("seed", p.seed);
    p.op_cycles = cfg.get_u64("op_cycles", p.op_cycles);
    program = app::make_kv(p, &result);
  } else {
    std::fprintf(stderr, "svsim: unknown app workload '%s'\n", name.c_str());
    return 2;
  }

  app::World world(machine, wp);
  world.launch(program);
  h.set_world(&world);
  if (!h.drive([&] { return world.done(); })) {
    return 1;
  }
  std::printf("%s over %s: %zu ranks on %zu nodes, %llu ops, "
              "checksum %.10g, %llu errors in %.1f us\n",
              name.c_str(), world.transport(0).kind(), world.nranks(),
              machine.size(), static_cast<unsigned long long>(result.ops),
              result.checksum,
              static_cast<unsigned long long>(result.errors),
              h.elapsed_us());
  // Dump here (not from main) so the World's app.* counters are included.
  h.dump_stats([&](sim::StatRegistry& reg) { world.add_stats(reg); });
  return result.errors == 0 ? 0 : 1;
}

}  // namespace

namespace {

/// Translate the --checkpoint-*/--restore spellings into their ckpt.*
/// config keys; returns the restore path ("" = none).
std::string translate_ckpt_args(std::vector<std::string>& args) {
  std::string restore;
  for (auto& a : args) {
    for (const auto& [flag, key] :
         {std::pair<const char*, const char*>{"--checkpoint-at=", "ckpt.at="},
          {"--checkpoint-every=", "ckpt.every="},
          {"--checkpoint-out=", "ckpt.out="}}) {
      if (a.rfind(flag, 0) == 0) {
        a = key + a.substr(std::strlen(flag));
      }
    }
    if (a.rfind("--restore=", 0) == 0) {
      restore = a.substr(std::strlen("--restore="));
      a = "ckpt.restore=1";  // placeholder; stripped from snapshots anyway
    }
  }
  return restore;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: svsim <msg|express|xfer|dma|scoma|numa|reliable|"
                 "app.stencil|app.allreduce|app.kv> [key=value ...]\n"
                 "       svsim --restore=FILE\n");
    return 2;
  }
  std::string workload = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (workload.rfind("--", 0) == 0) {
    args.insert(args.begin(), workload);
    workload.clear();
  }
  const std::string restore_path = translate_ckpt_args(args);

  sim::Config cfg;
  ckpt::Snapshot restored;
  try {
    if (!restore_path.empty()) {
      // The snapshot is the configuration: workload and every key come
      // from its embedded config text, one key=value (or workload=) line
      // each. Anything else on the command line would silently fork the
      // replay from the original run, so extra args are rejected.
      for (const auto& a : args) {
        if (a != "ckpt.restore=1") {
          throw std::runtime_error("--restore takes no other arguments");
        }
      }
      restored = ckpt::Snapshot::load_file(restore_path);
      std::vector<std::string> lines;
      std::size_t pos = 0;
      while (pos < restored.config.size()) {
        const std::size_t nl = restored.config.find('\n', pos);
        const std::size_t end =
            nl == std::string::npos ? restored.config.size() : nl;
        if (end > pos) {
          lines.push_back(restored.config.substr(pos, end - pos));
        }
        pos = end + 1;
      }
      for (auto& line : lines) {
        if (line.rfind("workload=", 0) == 0) {
          workload = line.substr(std::strlen("workload="));
          line = lines.back();
          lines.pop_back();
          break;
        }
      }
      cfg = sim::Config::from_args(lines);
      if (workload.empty()) {
        throw std::runtime_error("snapshot config names no workload");
      }
    } else {
      if (workload.empty()) {
        throw std::runtime_error("no workload given");
      }
      cfg = sim::Config::from_args(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svsim: %s\n", e.what());
    return 2;
  }

  std::unique_ptr<sys::Machine> machine_ptr;
  try {
    machine_ptr = std::make_unique<sys::Machine>(machine_params(cfg));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svsim: %s\n", e.what());
    return 2;
  }
  sys::Machine& machine = *machine_ptr;

  const std::string trace_file = cfg.get_string("trace", "");
  const std::string trace_stream = cfg.get_string("trace_stream", "");
  if (!trace_file.empty() || !trace_stream.empty()) {
    machine.enable_tracing(
        cfg.get_u64("trace_buf", trace::Tracer::kDefaultCapacity));
  }
  std::ofstream stream_os;
  std::unique_ptr<trace::ChromeStreamSink> stream_sink;
  if (!trace_stream.empty()) {
    if (machine.tracers().size() != 1) {
      std::fprintf(stderr,
                   "svsim: trace_stream requires a sequential machine "
                   "(threads=0); use trace= for partitioned runs\n");
      return 2;
    }
    stream_os.open(trace_stream);
    if (!stream_os) {
      std::fprintf(stderr, "svsim: cannot open %s\n", trace_stream.c_str());
      return 2;
    }
    stream_sink = std::make_unique<trace::ChromeStreamSink>(stream_os);
    machine.tracer()->set_sink(stream_sink.get());
  }

  Harness harness(machine, cfg);
  harness.set_workload(workload);
  if (!restore_path.empty()) {
    harness.set_restore(&restored);
  }
  int rc = 2;
  try {
    if (workload == "msg") {
      rc = run_msg(harness, cfg, false);
    } else if (workload == "express") {
      rc = run_msg(harness, cfg, true);
    } else if (workload == "xfer") {
      rc = run_xfer(machine, cfg);
    } else if (workload == "dma") {
      rc = run_dma(harness, cfg);
    } else if (workload == "scoma") {
      rc = run_shm(harness, cfg, true);
    } else if (workload == "numa") {
      rc = run_shm(harness, cfg, false);
    } else if (workload == "reliable") {
      rc = run_reliable(harness, cfg);
    } else if (workload.rfind("app.", 0) == 0) {
      rc = run_app(harness, cfg, workload);
    } else {
      std::fprintf(stderr, "svsim: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "svsim: %s\n", e.what());
    return 2;
  }

  if (stream_sink) {
    stream_sink->finish(machine.now());
    machine.tracer()->set_sink(nullptr);
    if (!stream_os) {
      std::fprintf(stderr, "svsim: write failed for %s\n",
                   trace_stream.c_str());
      return 1;
    }
    std::printf("trace: %llu events streamed (%llu flows evicted) -> %s\n",
                static_cast<unsigned long long>(stream_sink->events_written()),
                static_cast<unsigned long long>(stream_sink->flows_evicted()),
                trace_stream.c_str());
  }
  if (!trace_file.empty()) {
    // Merge the per-domain tracers into one canonical timeline — for a
    // sequential machine that is a single-tracer merge, so the file is the
    // same either way.
    const auto tracers = machine.tracers();
    std::size_t events = 0;
    std::uint64_t dropped = 0;
    for (const auto* tr : tracers) {
      events += tr->size();
      dropped += tr->dropped();
    }
    try {
      trace::write_chrome_trace_file(
          tracers, trace_file, trace::ChromeWriteOptions{machine.now()});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "svsim: %s\n", e.what());
      return 1;
    }
    std::printf("trace: %zu events (%llu dropped) -> %s\n", events,
                static_cast<unsigned long long>(dropped),
                trace_file.c_str());
  }

  harness.dump_stats();
  return rc;
}
