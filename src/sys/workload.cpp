#include "sys/workload.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "msg/dma.hpp"
#include "msg/dram_queue.hpp"
#include "shm/numa_region.hpp"
#include "shm/scoma_region.hpp"
#include "sim/random.hpp"
#include "sys/stats_dump.hpp"
#include "xfer/approaches.hpp"

namespace sv::sys {

// --- Keys ------------------------------------------------------------------

Key uint_key(std::string name, std::uint64_t def, std::uint64_t lo,
             std::uint64_t hi, std::string doc) {
  std::string range = hi == kNoLimit
                          ? ">=" + std::to_string(lo)
                          : std::to_string(lo) + ".." + std::to_string(hi);
  return {std::move(name), Key::kUint, std::to_string(def), lo, hi,
          std::move(range), std::move(doc)};
}
Key rate_key(std::string name, std::string doc) {
  return {std::move(name), Key::kRate, "0", 0, 0, "0..1", std::move(doc)};
}
Key bool_key(std::string name, std::string def, std::string doc) {
  return {std::move(name), Key::kBool, std::move(def), 0, 0, "0|1",
          std::move(doc)};
}
Key text_key(std::string name, std::string doc, std::string def) {
  return {std::move(name), Key::kText, std::move(def), 0, 0, "text",
          std::move(doc)};
}
Key choice_key(std::string name, std::string def, std::string choices,
               std::string doc) {
  return {std::move(name), Key::kChoice, std::move(def), 0, 0,
          std::move(choices), std::move(doc)};
}

namespace {

/// Throws std::invalid_argument naming the key unless cfg's value for `k`
/// has k's type and lies in its range.
void check_value(const Key& k, const sim::Config& cfg) {
  bool ok = true;
  std::string got = '\'' + cfg.get_string(k.name) + '\'';
  if (k.type == Key::kUint) {
    const std::uint64_t v = cfg.get_u64(k.name, 0);  // throws if malformed
    ok = v >= k.lo && v <= k.hi;
    got = std::to_string(v);
  } else if (k.type == Key::kRate) {
    const double v = cfg.get_double(k.name, 0.0);
    ok = v >= 0.0 && v <= 1.0;
  } else if (k.type == Key::kBool) {
    (void)cfg.get_bool(k.name, false);
  } else if (k.type == Key::kChoice) {
    ok = ("|" + k.range + "|").find("|" + cfg.get_string(k.name) + "|") !=
         std::string::npos;
  }
  if (!ok) {
    throw std::invalid_argument(k.name + ": expected " + k.range +
                                ", got " + got);
  }
}

/// " (did you mean 'x'?)" naming the closest of `known` within edit
/// distance 2 of `name`, or "".
std::string suggestion(const std::string& name,
                       const std::vector<std::string>& known) {
  std::string best;
  std::size_t best_d = 3;
  for (const std::string& k : known) {
    std::vector<std::size_t> row(k.size() + 1);  // Levenshtein, one row
    for (std::size_t j = 0; j <= k.size(); ++j) {
      row[j] = j;
    }
    for (std::size_t i = 1; i <= name.size(); ++i) {
      std::size_t diag = row[0];
      row[0] = i;
      for (std::size_t j = 1; j <= k.size(); ++j) {
        const std::size_t up = row[j];
        row[j] = std::min({up + 1, row[j - 1] + 1,
                           diag + (name[i - 1] == k[j - 1] ? 0 : 1)});
        diag = up;
      }
    }
    if (row[k.size()] < best_d) {
      best = k;
      best_d = row[k.size()];
    }
  }
  return best.empty() ? "" : " (did you mean '" + best + "'?)";
}

}  // namespace

void check_keys(const sim::Config& cfg,
                std::initializer_list<const KeyTable*> tables) {
  for (const auto& [name, value] : cfg.all()) {
    const Key* found = nullptr;
    std::vector<std::string> known;
    for (const KeyTable* t : tables) {
      for (const Key& k : *t) {
        known.push_back(k.name);
        found = k.name == name ? &k : found;
      }
    }
    if (found == nullptr) {
      throw std::invalid_argument("unknown key '" + name + "'" +
                                  suggestion(name, known));
    }
    check_value(*found, cfg);
  }
}

void print_keys(std::ostream& os, const KeyTable& keys) {
  for (const Key& k : keys) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    %-30s %-16s ",
                  (k.name + "=" + k.def).c_str(), k.range.c_str());
    os << buf << k.doc << '\n';
  }
}

Args::Args(const sim::Config& cfg, const KeyTable& keys) : cfg_(cfg) {
  for (const Key& k : keys) {
    if (!cfg_.contains(k.name) && !k.def.empty()) {
      cfg_.set(k.name, k.def);
    }
    if (cfg_.contains(k.name)) {
      check_value(k, cfg_);
    }
  }
}

// --- Machine ---------------------------------------------------------------

const KeyTable& machine_keys() {
  static const KeyTable keys = [] {
    const fault::Plan f;
    return KeyTable{
        uint_key("nodes", 2, 1, 1024, "nodes in the machine"),
        choice_key("net", "", "fattree|ideal",
                   "network (default fattree; ideal when threads>0)"),
        uint_key("radix", 4, 2, 16, "fat-tree router radix"),
        uint_key("threads", 0, 0, 64,
                 "threads running domains; >0: one domain per node"),
        uint_key("dram_mb", 16, 8, 1024, "aP DRAM per node, MiB"),
        uint_key("scoma_mb", 2, 1, 64, "S-COMA DRAM per node, MiB"),
        bool_key("scoma", "1", "S-COMA firmware and region"),
        uint_key("fault.seed", f.seed, 0, kNoLimit, "fault RNG seed"),
        rate_key("fault.drop_rate", "packet lost per link crossing"),
        rate_key("fault.corrupt_rate", "bit flip per link crossing"),
        rate_key("fault.link_down_rate", "link outage per crossing"),
        uint_key("fault.link_down_ticks", f.link_down_ticks, 0, kNoLimit,
                 "outage length, ps"),
        rate_key("fault.router_stall_rate", "router stall per packet"),
        uint_key("fault.router_stall_cycles", f.router_stall_cycles, 0,
                 0xffffffff, "stall length, router cycles"),
        rate_key("fault.starve_rate", "low-priority starvation per packet"),
        uint_key("fault.starve_cycles", f.starve_cycles, 0, 0xffffffff,
                 "starvation length, router cycles"),
        rate_key("fault.rx_overflow_rate", "NIU rx discard per packet"),
        text_key("fault.drop_script",
                 "drop exactly these opportunities (empty: none, counted)"),
    };
  }();
  return keys;
}

const KeyTable& run_keys() {
  static const KeyTable keys = {
      bool_key("stats", "0", "dump every component's counters"),
      choice_key("stats_format", "text", "text|json", "stats format"),
      uint_key("deadline_ms", 2000, 1, 1'000'000, "simulated time limit, ms"),
      text_key("trace", "write a Chrome trace JSON file"),
      uint_key("ckpt.at", 0, 0, kNoLimit,
               "snapshot at the first epoch boundary >= this ps"),
      uint_key("ckpt.every", 0, 0, kNoLimit,
               "snapshot every this many ps to <ckpt.out>.<tick>.svck"),
      text_key("ckpt.out", "snapshot file (prefix with ckpt.every)",
               "svsim.svck"),
  };
  return keys;
}

Machine::Params machine_params(const sim::Config& cfg) {
  const Args a(cfg, machine_keys());
  Machine::Params p;
  p.nodes = a.u64("nodes");
  p.radix = static_cast<unsigned>(a.u64("radix"));
  p.threads = static_cast<unsigned>(a.u64("threads"));
  const bool ideal = a.has("net") ? a.text("net") == "ideal" : p.threads > 0;
  p.net = ideal ? Machine::NetKind::kIdeal : Machine::NetKind::kFatTree;
  p.node.dram_size = a.u64("dram_mb") * 1024 * 1024;
  p.node.scoma_size = a.u64("scoma_mb") * 1024 * 1024;
  p.node.enable_scoma = a.flag("scoma");
  p.fault = fault::Plan::from_config(cfg);
  return p;
}

// --- Run -------------------------------------------------------------------

void Run::finish(sim::NodeId n) {
  done[n] = 1;
  ended[n] = machine.domain(n).now();
}

sim::Tick Run::end() const {
  if (world) {
    return world->finished_at();
  }
  return std::max(start, *std::max_element(ended.begin(), ended.end()));
}

Run::Values Run::values() const {
  Values v = measure ? measure(*this) : Values{};
  v["elapsed_us"] = elapsed_us();
  return v;
}

std::string Run::report() const {
  if (describe) {
    return describe(*this);
  }
  std::string line;
  for (const auto& [name, v] : values()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    line += (line.empty() ? "" : " ") + name + "=" + buf;
  }
  return line;
}

bool Run::finished() const {
  return world ? world->done()
               : std::count(done.begin(), done.end(), 0) == 0;
}

std::string Run::failure() const {
  for (const auto& m : mismatch) {
    if (!m.empty()) {
      return m;
    }
  }
  if (app.errors != 0) {
    return std::to_string(app.errors) + " app errors";
  }
  return verified ? "" : "VERIFY FAILED";
}

bool Run::any_gave_up() const {
  return std::count(gave_up.begin(), gave_up.end(), 1) != 0;
}

sim::StatRegistry Run::stats() const {
  sim::StatRegistry reg = collect_stats(machine);
  if (world) {
    world->add_stats(reg);
  }
  return reg;
}

// --- Drivers ---------------------------------------------------------------

namespace {

using ull = unsigned long long;

void require(bool ok, const std::string& key, const std::string& why) {
  if (!ok) {
    throw std::invalid_argument(key + ": " + why);
  }
}

/// Drivers that move data between nodes cannot run on one.
void require_two_nodes(const Machine& machine, const std::string& name) {
  require(machine.size() >= 2, "nodes",
          name + " needs at least 2 nodes, got " +
              std::to_string(machine.size()));
}

std::string format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

void add_endpoint(Run& run, sim::NodeId n) {
  run.endpoints.push_back(std::make_unique<msg::Endpoint>(
      run.machine.node(n).ap(), run.machine.node(n).endpoint_config()));
}

/// All-to-all: each node sends `count` messages round-robin to the others,
/// then receives `count`. Every node receives exactly `count`, so a count
/// within its rx queue's slots can never overflow the queue.
sim::Co<void> msg_program(Run* run, sim::NodeId self, std::uint64_t count,
                          std::uint64_t bytes, bool express) {
  msg::Endpoint* ep = run->endpoints[self].get();
  const msg::AddressMap map = run->machine.addr_map();
  const std::size_t nodes = run->done.size();
  std::vector<std::byte> payload(bytes);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto dst =
        static_cast<sim::NodeId>((self + 1 + i % (nodes - 1)) % nodes);
    if (express) {
      co_await ep->send_express(map.express(dst), 0,
                                static_cast<std::uint32_t>(i));
    } else {
      co_await ep->send(map.user0(dst), payload);
    }
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    if (express) {
      (void)co_await ep->recv_express();
    } else {
      (void)co_await ep->recv();
    }
  }
  run->finish(self);
}

std::unique_ptr<Run> start_msg(Machine& machine, const Args& a,
                               bool express) {
  require_two_nodes(machine, express ? "express" : "msg");
  require(!express || machine.size() <= 256, "nodes",
          "express needs at most 256 nodes (the destination is an 8-bit "
          "express vdest), got " + std::to_string(machine.size()));
  auto run = std::make_unique<Run>(machine);
  const auto count = a.u64("count");
  const std::uint64_t bytes = express ? 5 : a.u64("bytes");
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    add_endpoint(*run, n);
  }
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    run->done[n] = 0;
    machine.node(n).ap().run(
        msg_program(run.get(), n, count, bytes, express));
  }
  run->describe = [count, bytes, express](const Run& r) {
    const double us = r.elapsed_us();
    return format("%s all-to-all: %zu nodes x %llu msgs in %.1f us "
                  "(%.1f MB/s aggregate payload)",
                  express ? "express" : "basic", r.machine.size(),
                  static_cast<ull>(count), us,
                  static_cast<double>(r.machine.size() * count * bytes) / us);
  };
  return run;
}

/// Node 0 DMA-writes `bytes` of its DRAM into node 1's, which waits for
/// the completion message.
std::unique_ptr<Run> start_dma(Machine& machine, const Args& a) {
  require_two_nodes(machine, "dma");
  const auto bytes = static_cast<std::uint32_t>(a.u64("bytes"));
  require(bytes % 32 == 0, "bytes",
          "expected a multiple of 32, got " + std::to_string(bytes));
  auto run = std::make_unique<Run>(machine);
  add_endpoint(*run, 0);
  add_endpoint(*run, 1);
  machine.node(0).ap().run([](Run* r, std::uint32_t n) -> sim::Co<void> {
    co_await msg::dma_write(*r->endpoints[0], r->machine.addr_map(), 0, 1,
                            0x100000, 0x200000, n, msg::AddressMap::kUser0L,
                            1);
  }(run.get(), bytes));
  run->done[1] = 0;
  machine.node(1).ap().run([](Run* r) -> sim::Co<void> {
    (void)co_await r->endpoints[1]->recv();
    r->finish(1);
  }(run.get()));
  run->describe = [bytes](const Run& r) {
    const double us = r.elapsed_us();
    return format("dma: %u bytes in %.1f us = %.1f MB/s", bytes, us,
                  static_cast<double>(bytes) / us);
  };
  return run;
}

/// One load, or store of `v`, at `off` in the S-COMA or NUMA window.
sim::Co<void> shm_access(shm::ScomaRegion& sc, shm::NumaRegion& nm,
                         bool scoma, bool store, mem::Addr off,
                         std::uint32_t v) {
  if (scoma && store) {
    co_await sc.store<std::uint32_t>(off, v);
  } else if (scoma) {
    (void)co_await sc.load<std::uint32_t>(off);
  } else if (store) {
    co_await nm.store<std::uint32_t>(off, v);
  } else {
    (void)co_await nm.load<std::uint32_t>(off);
  }
}

/// `ops` seeded random loads/stores over `words` shared lines. Every node
/// runs its own stream in its own domain, so the contention is cross-node
/// and the run is valid — and bit-identical — at every threads= value.
sim::Co<void> shm_program(Run* run, sim::NodeId self, std::uint64_t ops,
                          std::uint64_t words, std::uint64_t seed,
                          bool scoma) {
  sim::Rng rng(seed);
  shm::ScomaRegion sc(run->machine.node(self).ap());
  shm::NumaRegion nm(run->machine.node(self).ap());
  for (std::uint64_t i = 0; i < ops; ++i) {
    const mem::Addr off = 0x1000 + rng.below(words) * 64;
    const bool store = rng.chance(0.5);
    co_await shm_access(sc, nm, scoma, store, off,
                        static_cast<std::uint32_t>(i));
  }
  run->finish(self);
}

std::unique_ptr<Run> start_shm(Machine& machine, const Args& a, bool scoma) {
  auto run = std::make_unique<Run>(machine);
  const auto ops = a.u64("ops");
  const auto words = a.u64("words");
  for (sim::NodeId n = 0; n < machine.size(); ++n) {
    run->done[n] = 0;
    const std::uint64_t seed =
        a.u64("seed") ^ (0x9e3779b97f4a7c15ull * (n + 1));
    machine.node(n).ap().run(
        shm_program(run.get(), n, ops, words, seed, scoma));
  }
  run->describe = [ops, words, scoma](const Run& r) {
    return format("%s: %llu ops/node over %llu shared words in %.1f us",
                  scoma ? "scoma" : "numa", static_cast<ull>(ops),
                  static_cast<ull>(words), r.elapsed_us());
  };
  return run;
}

msg::ReliableChannel::Params channel_params(const Args& a) {
  msg::ReliableChannel::Params cp;
  cp.window = a.u64("window");
  cp.retransmit.base_timeout = a.u64("timeout_us") * sim::kMicrosecond;
  cp.retransmit.give_up_after = static_cast<unsigned>(a.u64("give_up"));
  return cp;
}

/// The payload node `src` sends as its i-th ring message.
std::vector<std::byte> ring_payload(sim::NodeId src, std::uint64_t i,
                                    std::uint64_t bytes) {
  std::vector<std::byte> p(bytes);
  for (std::size_t b = 0; b < p.size(); ++b) {
    p[b] = static_cast<std::byte>(src + i + b);
  }
  return p;
}

/// Ring over ReliableChannel: each node streams `count` payloads to its
/// right neighbour, then consumes `count` from its left, checking each
/// against the sender's pattern.
sim::Co<void> ring_program(Run* run, sim::NodeId self, std::uint64_t count,
                           std::uint64_t bytes) {
  const std::size_t nodes = run->done.size();
  const auto right = static_cast<sim::NodeId>((self + 1) % nodes);
  const auto left = static_cast<sim::NodeId>((self + nodes - 1) % nodes);
  msg::ReliableChannel& ch = *run->channels[self];
  for (std::uint64_t i = 0; i < count; ++i) {
    co_await ch.send(right, ring_payload(self, i, bytes));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::vector<std::byte> got = co_await ch.recv(left);
    if (got != ring_payload(left, i, bytes) && run->mismatch[self].empty()) {
      run->mismatch[self] = format(
          "node %u message %llu from node %u: payload mismatch (%zu bytes)",
          self, static_cast<ull>(i), left, got.size());
    }
  }
  run->finish(self);
}

/// The ring; a channel that gives up is recorded, not acted on.
std::unique_ptr<Run> start_reliable(Machine& machine, const Args& a) {
  auto run = std::make_unique<Run>(machine);
  const auto count = a.u64("count");
  const auto bytes = a.u64("bytes");
  const auto nodes = static_cast<sim::NodeId>(machine.size());
  run->gave_up.assign(nodes, 0);
  run->mismatch.assign(nodes, "");
  for (sim::NodeId n = 0; n < nodes; ++n) {
    add_endpoint(*run, n);
    run->channels.push_back(std::make_unique<msg::ReliableChannel>(
        *run->endpoints[n], machine.addr_map(), n, channel_params(a)));
    run->channels[n]->set_give_up(
        [r = run.get(), n](sim::NodeId) { r->gave_up[n] = 1; });
    run->channels[n]->start();
  }
  for (sim::NodeId n = 0; n < nodes; ++n) {
    run->done[n] = 0;
    machine.node(n).ap().run(ring_program(run.get(), n, count, bytes));
  }
  run->measure = [count, bytes](const Run& r) {
    std::uint64_t retx = 0;
    for (const auto& ch : r.channels) {
      retx += ch->stats().retransmitted.value();
    }
    return Run::Values{
        {"mb_s", static_cast<double>(r.machine.size() * count * bytes) /
                     r.elapsed_us()},
        {"retransmits", static_cast<double>(retx)}};
  };
  run->describe = [count, bytes](const Run& r) {
    std::uint64_t corrupt = 0;
    for (const auto& ch : r.channels) {
      corrupt += ch->stats().corrupt_rejected.value();
    }
    const auto audit = r.machine.network().audit();
    Run::Values v = r.values();
    return format(
        "reliable ring: %zu nodes x %llu msgs x %llu B in %.1f us "
        "(%.1f MB/s payload), %llu retransmits, %llu crc rejects, "
        "%llu/%llu packets dropped%s",
        r.machine.size(), static_cast<ull>(count), static_cast<ull>(bytes),
        v["elapsed_us"], v["mb_s"], static_cast<ull>(v["retransmits"]),
        static_cast<ull>(corrupt), static_cast<ull>(audit.dropped),
        static_cast<ull>(audit.injected),
        r.any_gave_up() ? ", a channel gave up" : "");
  };
  return run;
}

/// One Figure-3/4 block transfer from node 0 to node 1. The transfer
/// harness steps the single kernel itself, so launch runs the transfer
/// to completion and returns a finished Run.
std::unique_ptr<Run> start_xfer(Machine& machine, const Args& a) {
  require(!machine.partitioned(), "threads",
          "the xfer harness is sequential-only; rerun without threads=");
  require_two_nodes(machine, "xfer");
  const int approach = static_cast<int>(a.u64("approach"));
  const auto bytes = static_cast<std::uint32_t>(a.u64("bytes"));
  require(bytes % 32 == 0, "bytes",
          "expected a multiple of 32, got " + std::to_string(bytes));
  xfer::TransferSpec spec;
  spec.len = bytes;
  if (approach >= 4) {
    spec.dst = niu::kScomaBase + 0x8000;
  }
  xfer::RunOptions opt;
  opt.consume = a.has("consume") ? a.flag("consume") : approach >= 4;
  opt.consume_delay = a.u64("consume_us") * sim::kMicrosecond;
  const auto res =
      xfer::BlockTransferHarness(machine).run(approach, spec, opt);
  const auto us = [](sim::Tick t) { return static_cast<double>(t) / 1e6; };
  Run::Values v = {{"notify_us", us(res.latency())},
                   {"mb_s", res.bandwidth_mbps(bytes)},
                   {"tx_ap_us", us(res.sender_ap_busy)},
                   {"tx_sp_us", us(res.sender_sp_busy)},
                   {"rx_sp_us", us(res.receiver_sp_busy)}};
  if (opt.consume) {
    v["consumed_us"] = us(res.consume_time - res.start);
  }
  const std::string consumed =
      opt.consume ? format(", consumed %f us", v["consumed_us"]) : "";
  const std::string line = format(
      "approach %d, %u bytes: notify %.2f us (%.1f MB/s)%s, "
      "tx aP %.2f us / tx sP %.2f us / rx sP %.2f us, %s",
      approach, bytes, v["notify_us"], v["mb_s"], consumed.c_str(),
      v["tx_ap_us"], v["tx_sp_us"], v["rx_sp_us"],
      res.ok ? "verified" : "VERIFY FAILED");
  auto run = std::make_unique<Run>(machine);
  run->start = res.start;
  run->ended[1] = res.notify_time;
  run->verified = res.ok;
  run->measure = [v](const Run&) { return v; };
  run->describe = [line](const Run&) { return line; };
  return run;
}

// --- Mechanism drivers (EXPERIMENTS.md Ext-B to Ext-K) ----------------------

/// pair: what node 0 sends and node 1 receives, owned by the Run.
struct PairSpec {
  std::string kind;
  std::vector<std::byte> data;  ///< Basic payload or TagOn staged bytes
  std::uint64_t count;
  bool reply;
  bool interrupt;
  bool loaded;  ///< background load shares the NIUs
};

/// With background load the pair starts once the load is steady.
constexpr sim::Tick kPairWarmup = 200 * sim::kMicrosecond;

/// Background DMA: node 0 pushes 8 KB to node 1 back to back over its
/// second user queue pair, forever.
sim::Co<void> dma_background(Run* run, msg::Endpoint* ep) {
  for (std::uint32_t tag = 0x1000;; ++tag) {
    co_await msg::dma_write(*ep, run->machine.addr_map(), 0, 1, 0x100000,
                            0x200000, 8192, niu::kNoNotify, tag,
                            msg::AddressMap::kUser1L);
    (void)co_await ep->recv();
  }
}

/// Background S-COMA churn: node 1 stores to lines homed on node 0,
/// forever.
sim::Co<void> scoma_background(Run* run) {
  shm::ScomaRegion sc(run->machine.node(1).ap());
  for (std::uint32_t i = 0;; ++i) {
    co_await sc.store<std::uint32_t>(0x40 * (1 + i % 16), i);
  }
}

sim::Co<void> pair_send(msg::Endpoint* ep, msg::AddressMap map,
                        sim::NodeId to, const PairSpec* s) {
  if (s->kind == "express") {
    co_await ep->send_express(map.express(to), 1, 0x12345678);
  } else if (s->kind == "tagon") {
    const std::byte inline_data[8] = {};
    co_await ep->stage(ep->staging_base(), s->data);
    co_await ep->send_tagon(map.user0(to), inline_data, ep->staging_base(),
                            s->data.size() == niu::kTagOnLargeBytes);
  } else {
    co_await ep->send(map.user0(to), s->data);
  }
}

sim::Co<void> pair_recv(msg::Endpoint* ep, const PairSpec* s) {
  if (s->kind == "express") {
    (void)co_await ep->recv_express();
  } else if (s->interrupt) {
    (void)co_await ep->recv_interrupt();
  } else {
    (void)co_await ep->recv();
  }
}

/// Node 0 sends `count` messages to node 1 back to back or, with reply,
/// each answered before the next (ping-pong); under background load,
/// after the warm-up.
sim::Co<void> pair_program(Run* run, sim::NodeId self, const PairSpec* s) {
  if (s->loaded) {
    sim::Kernel& k = run->machine.domain(self);
    co_await sim::delay(k, kPairWarmup);
    if (self == 0) {
      run->start = k.now();
    }
  }
  msg::Endpoint* ep = run->endpoints[self].get();
  const msg::AddressMap map = run->machine.addr_map();
  for (std::uint64_t i = 0; i < s->count; ++i) {
    if (self == 0) {
      co_await pair_send(ep, map, 1, s);
      if (s->reply) {
        co_await pair_recv(ep, s);
      }
    } else {
      co_await pair_recv(ep, s);
      if (s->reply) {
        co_await pair_send(ep, map, 0, s);
      }
    }
  }
  run->finish(self);
}

std::unique_ptr<Run> start_pair(Machine& machine, const Args& a) {
  require_two_nodes(machine, "pair");
  const std::string bg = a.text("background");
  const bool dma = bg == "dma" || bg == "both";
  const bool scoma = bg == "scoma" || bg == "both";
  require(!scoma || machine.node(1).scoma() != nullptr, "scoma",
          "background=" + bg + " needs scoma=1");
  auto s = std::make_shared<PairSpec>(
      PairSpec{a.text("kind"), std::vector<std::byte>(a.u64("bytes")),
               a.u64("count"), a.flag("reply"), a.flag("interrupt"),
               dma || scoma});
  require(s->kind != "tagon" || s->data.size() == niu::kTagOnSmallBytes ||
              s->data.size() == niu::kTagOnLargeBytes,
          "bytes", "kind=tagon stages 48 or 80 bytes, got " +
                       std::to_string(s->data.size()));
  auto run = std::make_unique<Run>(machine);
  run->state = s;
  add_endpoint(*run, 0);
  add_endpoint(*run, 1);
  if (dma) {
    run->endpoints.push_back(std::make_unique<msg::Endpoint>(
        machine.node(0).ap(), machine.node(0).endpoint1_config()));
    machine.node(0).ap().run(
        dma_background(run.get(), run->endpoints[2].get()));
  }
  if (scoma) {
    machine.node(1).ap().run(scoma_background(run.get()));
  }
  for (const sim::NodeId n : {0, 1}) {
    run->done[n] = 0;
    machine.node(n).ap().run(pair_program(run.get(), n, s.get()));
  }
  run->measure = [s](const Run& r) {
    const double us = r.elapsed_us();
    const auto n = static_cast<double>(s->count);
    return Run::Values{
        {"per_msg_us", us / n},
        {"mb_s", n * static_cast<double>(s->data.size()) / us}};
  };
  return run;
}

/// rxq: logical ids of the DRAM-resident queues, one per queue.
constexpr net::QueueId kRxqFirst = 0x0800;

/// Node 0 sends `count` 16-byte messages round-robin to each of node 1's
/// DRAM-resident queues, or to its hardware user queue when there are
/// none; node 1 drains them in the same order.
sim::Co<void> rxq_program(Run* run, sim::NodeId self,
                          std::vector<msg::DramQueue>* queues,
                          std::uint64_t count) {
  msg::Endpoint* ep = run->endpoints[self].get();
  const std::byte b[16] = {};
  for (std::uint64_t i = 0; i < count; ++i) {
    if (queues->empty() && self == 0) {
      co_await ep->send(run->machine.addr_map().user0(1), b);
    } else if (queues->empty()) {
      (void)co_await ep->recv();
    }
    for (std::size_t q = 0; q < queues->size(); ++q) {
      if (self == 0) {
        co_await ep->send_raw(1, static_cast<net::QueueId>(kRxqFirst + q), b);
      } else {
        (void)co_await (*queues)[q].recv();
      }
    }
  }
  run->finish(self);
}

std::unique_ptr<Run> start_rxq(Machine& machine, const Args& a) {
  require_two_nodes(machine, "rxq");
  Node& rx = machine.node(1);
  // Lossless spill: the miss queue holds arrivals when full.
  rx.niu().ctrl().rxq(niu::kMissRxQueue).full_policy =
      niu::RxFullPolicy::kHold;
  auto queues = std::make_shared<std::vector<msg::DramQueue>>();
  for (std::uint64_t q = 0; q < a.u64("queues"); ++q) {
    fw::DramQueueDesc desc;
    desc.base = 0x400000 + q * 0x4000;
    desc.slots = 64;
    rx.miss_service().register_queue(
        static_cast<net::QueueId>(kRxqFirst + q), desc);
    queues->emplace_back(rx.ap(), desc);
  }
  auto run = std::make_unique<Run>(machine);
  run->state = queues;
  const auto count = a.u64("count");
  for (const sim::NodeId n : {0, 1}) {
    add_endpoint(*run, n);
    run->done[n] = 0;
    machine.node(n).ap().run(rxq_program(run.get(), n, queues.get(), count));
  }
  const auto msgs = static_cast<double>(
      count * std::max<std::size_t>(queues->size(), 1));
  run->measure = [msgs](const Run& r) {
    return Run::Values{{"per_msg_us", r.elapsed_us() / msgs}};
  };
  return run;
}

/// txarb: node 0's NIU holds 32 88-byte messages on user queue 0 and one
/// 8-byte probe on user queue 1, composed through the SRAM backdoor so
/// only arbitration shapes the probe's latency to node 1.
std::unique_ptr<Run> start_txarb(Machine& machine, const Args& a) {
  require_two_nodes(machine, "txarb");
  const msg::AddressMap map = machine.addr_map();
  niu::Ctrl& ctrl = machine.node(0).niu().ctrl();
  ctrl.write_reg(niu::SysReg::kTxPriority,
                 a.u64("bulk_class") << (2 * Node::kTxUser0) |
                     a.u64("probe_class") << (2 * Node::kTxUser1));
  const auto post = [&](unsigned q, std::uint16_t vdest,
                        std::uint16_t length, std::uint16_t n) {
    niu::TxQueueState& tq = ctrl.txq(q);
    for (std::uint16_t i = 0; i < n; ++i) {
      niu::MsgDescriptor d;
      d.vdest = vdest;
      d.length = length;
      std::byte hdr[8];
      d.encode(hdr);
      machine.node(0).niu().asram().write(
          tq.slot_addr(static_cast<std::uint16_t>(tq.producer + i)), hdr);
    }
    ctrl.tx_producer_update(q, static_cast<std::uint16_t>(tq.producer + n));
  };
  post(Node::kTxUser0, map.user0(1), 88, 32);
  auto run = std::make_unique<Run>(machine);
  run->done[1] = 0;
  machine.node(1).ap().run(
      [](Run* r, std::uint16_t before) -> sim::Co<void> {
        niu::Ctrl& rx = r->machine.node(1).niu().ctrl();
        co_await rx.rx_arrival().until(
            [&] { return rx.rxq(Node::kRxUser1).producer != before; });
        r->finish(1);
      }(run.get(), machine.node(1).niu().ctrl().rxq(Node::kRxUser1).producer));
  post(Node::kTxUser1, map.user1(1), 8, 1);
  return run;
}

/// access: node 1's one timed load or store of a shared line, after a
/// load and an aP-cache purge when `warm` (so an S-COMA load hits DRAM).
sim::Co<void> access_program(Run* run, bool scoma, bool store, mem::Addr off,
                             bool warm) {
  Node& node = run->machine.node(1);
  shm::ScomaRegion sc(node.ap());
  shm::NumaRegion nm(node.ap());
  if (warm) {
    co_await shm_access(sc, nm, scoma, false, off, 1);
    node.cache().purge_range((scoma ? niu::kScomaBase : niu::kNumaBase) + off,
                             4);
    run->start = run->machine.domain(1).now();
  }
  co_await shm_access(sc, nm, scoma, store, off, 1);
  run->finish(1);
}

std::unique_ptr<Run> start_access(Machine& machine, const Args& a) {
  require_two_nodes(machine, "access");
  const bool scoma = a.text("region") == "scoma";
  require(!scoma || machine.node(0).scoma() != nullptr, "scoma",
          "region=scoma needs scoma=1");
  require(!a.flag("hw_miss") || scoma, "hw_miss", "needs region=scoma");
  if (a.flag("hw_miss")) {
    for (sim::NodeId n = 0; n < machine.size(); ++n) {
      machine.node(n).scoma()->enable_hw_miss_send();
    }
  }
  // Pages are interleaved across homes: page 0 homes on node 0, page 1 on
  // node 1.
  const mem::Addr off = (a.text("home") == "local" ? 0x1000 : 0) + 0x40;
  auto run = std::make_unique<Run>(machine);
  run->done[1] = 0;
  machine.node(1).ap().run(access_program(run.get(), scoma,
                                          a.text("op") == "store", off,
                                          a.flag("warm")));
  return run;
}

/// packets: arrivals per node the bare network owes each endpoint, and
/// the high-priority probe's send and arrival ticks.
struct PacketsState {
  std::vector<std::uint64_t> want;
  std::vector<std::uint64_t> got;
  sim::Tick probe_sent = 0;
  sim::Tick probe_at = 0;
};

net::Packet raw_packet(sim::NodeId src, sim::NodeId dst, std::size_t bytes,
                       std::uint8_t priority) {
  net::Packet p;
  p.src = src;
  p.dest = dst;
  p.dest_queue = 1;
  p.priority = priority;
  p.payload.resize(bytes);
  return p;
}

/// `count` rounds of one 88-byte low-priority packet from `src` to each
/// node in `dsts`.
sim::Co<void> packet_stream(net::Network* net, sim::NodeId src,
                            std::vector<sim::NodeId> dsts,
                            std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    for (const sim::NodeId d : dsts) {
      co_await net->inject(raw_packet(src, d, 88, net::kPriorityLow));
    }
  }
}

/// The bare fabric: the driver takes over every endpoint's delivery
/// callback, so packets go from injection port to ejection port with no
/// NIU in the path. Node 0 streams `count` packets to the last node (or,
/// with alltoall, every node streams `count` to every other), and with
/// probe a high-priority 8-byte packet follows 20 us after the start.
std::unique_ptr<Run> start_packets(Machine& machine, const Args& a) {
  require_two_nodes(machine, "packets");
  const auto count = a.u64("count");
  const bool probe = a.flag("probe");
  const bool all = a.flag("alltoall");
  require(count > 0 || probe, "count", "nothing to send without probe=1");
  const std::size_t nodes = machine.size();
  const auto last = static_cast<sim::NodeId>(nodes - 1);
  auto st = std::make_shared<PacketsState>();
  st->want.assign(nodes, all ? (nodes - 1) * count : 0);
  st->want[last] += (all ? 0 : count) + (probe ? 1 : 0);
  st->got.assign(nodes, 0);
  auto run = std::make_unique<Run>(machine);
  run->state = st;
  net::Network* net = &machine.network();
  for (sim::NodeId n = 0; n < nodes; ++n) {
    run->done[n] = st->want[n] == 0 ? 1 : 0;
    net->set_endpoint(n, [r = run.get(), st = st.get(), n](net::Packet&& p) {
      if (p.priority == net::kPriorityHigh) {
        st->probe_at = r->machine.domain(n).now();
      }
      r->machine.network().consume_done(n, p.priority);
      if (++st->got[n] == st->want[n]) {
        r->finish(n);
      }
    });
  }
  for (sim::NodeId s = 0; s < (all ? nodes : 1); ++s) {
    std::vector<sim::NodeId> dsts;
    for (sim::NodeId d = 0; d < nodes; ++d) {
      if (d != s && (all || d == last)) {
        dsts.push_back(d);
      }
    }
    sim::spawn(packet_stream(net, s, std::move(dsts), count));
  }
  if (probe) {
    sim::spawn([](Run* r, PacketsState* ps, sim::NodeId dst) -> sim::Co<void> {
      sim::Kernel& k = r->machine.domain(0);
      co_await sim::delay(k, 20 * sim::kMicrosecond);
      ps->probe_sent = k.now();
      co_await r->machine.network().inject(
          raw_packet(0, dst, 8, net::kPriorityHigh));
    }(run.get(), st.get(), last));
  }
  const auto low = static_cast<double>(all ? nodes * (nodes - 1) * count
                                           : count);
  run->measure = [st, low](const Run& r) {
    const double us = r.elapsed_us();
    return Run::Values{
        {"probe_us", static_cast<double>(st->probe_at - st->probe_sent) / 1e6},
        {"payload_mb_s", low * 88 / us},
        {"wire_mb_s", low * static_cast<double>(88 + net::kHeaderBytes) / us}};
  };
  return run;
}

/// diff: node 0's 4 KB page in the S-COMA window (tracked by the aBIU)
/// and node 1's destination. Value diffs compare against the old copy at
/// Node::kDiffCopyBase.
constexpr mem::Addr kDiffPage = niu::kScomaBase + 0x10000;
constexpr std::uint32_t kDiffBytes = 4096;
constexpr mem::Addr kDiffDest = 0x0060'0000;

/// Node 0 dirties `dirty` evenly spread lines of the page, then ships the
/// page to node 1 with one NIU command, which notifies node 0 when done.
sim::Co<void> diff_program(Run* run, niu::Command cmd, unsigned dirty) {
  Node& node = run->machine.node(0);
  const unsigned lines = kDiffBytes / mem::kLineBytes;
  const unsigned stride = dirty == 0 ? lines : lines / dirty;
  for (unsigned i = 0; i < dirty; ++i) {
    co_await node.ap().store_scalar<std::uint32_t>(
        kDiffPage + static_cast<mem::Addr>(i) * stride * mem::kLineBytes,
        1 + i);
  }
  co_await node.ap().flush_range(kDiffPage, kDiffBytes);
  niu::Ctrl& ctrl = node.niu().ctrl();
  const std::uint16_t before = ctrl.rxq(Node::kRxUser0).producer;
  run->start = run->machine.domain(0).now();
  ctrl.post_command(0, std::move(cmd));
  co_await ctrl.rx_arrival().until(
      [&] { return ctrl.rxq(Node::kRxUser0).producer != before; });
  co_await ctrl.commands_drained().until([&] { return ctrl.commands_idle(); });
  run->finish(0);
}

/// Node 1's NIU executes the `writes` remote writes that carry the page.
sim::Co<void> diff_sink(Run* run, std::uint64_t writes) {
  niu::Ctrl& ctrl = run->machine.node(1).niu().ctrl();
  co_await ctrl.command_progress().until([&] {
    return ctrl.stats().cmds_remote.value() >= writes && ctrl.commands_idle();
  });
  run->finish(1);
}

std::unique_ptr<Run> start_diff(Machine& machine, const Args& a) {
  require_two_nodes(machine, "diff");
  Node& node = machine.node(0);
  node.niu().abiu().enable_write_tracking(kDiffPage, kDiffBytes);
  const std::string mode = a.text("mode");
  niu::Command cmd;
  cmd.op = mode == "full" ? niu::CmdOp::kBlockXfer : niu::CmdOp::kBlockDiffTx;
  cmd.diff_mode = mode == "value" ? 1 : 0;
  cmd.addr = kDiffPage;
  cmd.len = kDiffBytes;
  cmd.dest_node = 1;
  cmd.dest_addr = kDiffDest;
  cmd.notify_queue = msg::AddressMap::kUser0L;
  cmd.notify_tag = 2;
  if (mode != "tracked") {
    cmd.bank = niu::SramBank::kSSram;
    cmd.sram_offset =
        mode == "full" ? fw::DmaEngine::kStaging : Node::kDiffCopyBase;
  }
  if (mode == "value") {
    // The old copy equals the page, so only the dirtied lines differ.
    std::vector<std::byte> page(kDiffBytes);
    node.dram().store().read(kDiffPage, page);
    node.niu().ssram().write(Node::kDiffCopyBase, page);
  }
  auto run = std::make_unique<Run>(machine);
  const auto dirty = a.u64("dirty");
  for (const sim::NodeId n : {0, 1}) {
    run->done[n] = 0;
  }
  node.ap().run(diff_program(run.get(), std::move(cmd),
                             static_cast<unsigned>(dirty)));
  machine.node(1).ap().run(
      diff_sink(run.get(), mode == "full" ? kDiffBytes / 64 : dirty));
  return run;
}

using MakeApp = std::function<app::World::Program(
    const Args&, const app::World&, app::AppResult*)>;

/// app.*: a shipped application (app/apps.hpp), made by `make`, run by
/// the SMPI-style runtime over the chosen transport.
std::unique_ptr<Run> start_app(Machine& machine, const Args& a,
                               std::string name, const MakeApp& make) {
  app::World::Params wp;
  wp.nranks = a.u64("ranks");
  const std::string transport = a.text("transport");
  wp.transport = transport == "shm"        ? app::TransportKind::kShm
                 : transport == "reliable" ? app::TransportKind::kReliable
                                           : app::TransportKind::kMsg;
  wp.shm_region = a.text("app.shm") == "scoma"
                      ? app::ShmTransport::Region::kScoma
                      : app::ShmTransport::Region::kNuma;
  wp.reliable = channel_params(a);
  auto run = std::make_unique<Run>(machine);
  run->world = std::make_unique<app::World>(machine, wp);
  run->world->launch(make(a, *run->world, &run->app));
  run->describe = [name](const Run& r) {
    return format("%s over %s: %zu ranks on %zu nodes, %llu ops, "
                  "checksum %.10g, %llu errors in %.1f us",
                  name.c_str(), r.world->transport(0).kind(),
                  r.world->nranks(), r.machine.size(),
                  static_cast<ull>(r.app.ops), r.app.checksum,
                  static_cast<ull>(r.app.errors), r.elapsed_us());
  };
  return run;
}

/// ReliableChannel's keys, `doc` prefixed to each doc line.
KeyTable channel_keys(const std::string& doc) {
  const msg::ReliableChannel::Params cp;
  return {
      uint_key("window", cp.window, 1, 1024, doc + "unacked frames/peer"),
      uint_key("timeout_us", cp.retransmit.base_timeout / sim::kMicrosecond,
               1, 1'000'000, doc + "first retransmit timeout, us"),
      uint_key("give_up", cp.retransmit.give_up_after, 1, 1000,
               doc + "fruitless timeouts before giving up on a peer"),
  };
}

/// An app.* entry: the keys every app shares, then `own`.
Workload app_entry(std::string name, std::string doc, const KeyTable& own,
                   MakeApp make) {
  KeyTable keys = {
      uint_key("ranks", 0, 0, 64, "processes; 0 = one per node"),
      choice_key("transport", "msg", "msg|shm|reliable", "message transport"),
      choice_key("app.shm", "numa", "numa|scoma", "shm transport's rings"),
  };
  for (const KeyTable& t : {channel_keys("transport=reliable: "), own}) {
    keys.insert(keys.end(), t.begin(), t.end());
  }
  return {name, std::move(doc), std::move(keys),
          [name, make](Machine& m, const Args& a) {
            return start_app(m, a, name, make);
          }};
}

std::vector<Workload> make_registry() {
  const KeyTable shm = {
      uint_key("ops", 200, 1, kNoLimit, "loads+stores per node"),
      uint_key("words", 16, 1, 4096, "shared 64-byte lines"),
      uint_key("seed", 42, 0, kNoLimit, "access-stream seed"),
  };
  KeyTable ring = channel_keys("");
  ring.insert(ring.begin(),
              {uint_key("count", 100, 1, kNoLimit, "payloads per node"),
               uint_key("bytes", 64, 0, msg::ReliableChannel::kMaxPayload,
                        "payload bytes")});
  const std::string rx = "messages per node, sent and received (<= rx slots)";
  const app::StencilParams st;
  const app::AllreduceParams ar;
  const app::KvParams kv;
  return {
      {"msg", "all-to-all Basic messaging",
       {uint_key("count", 64, 1, Node::kUserSlots, rx),
        uint_key("bytes", 32, 0, niu::kBasicMaxData, "payload bytes")},
       [](Machine& m, const Args& a) { return start_msg(m, a, false); }},
      {"express", "all-to-all Express messaging",
       {uint_key("count", 100, 1, Node::kExpressSlots, rx)},
       [](Machine& m, const Args& a) { return start_msg(m, a, true); }},
      {"dma", "DMA write from node 0's DRAM into node 1's",
       {uint_key("bytes", 65536, 32, 1 << 20, "bytes, a multiple of 32")},
       start_dma},
      {"scoma", "random S-COMA loads/stores on shared lines", shm,
       [](Machine& m, const Args& a) { return start_shm(m, a, true); }},
      {"numa", "random NUMA loads/stores on shared lines", shm,
       [](Machine& m, const Args& a) { return start_shm(m, a, false); }},
      {"reliable", "verified ring traffic over ReliableChannel", ring,
       start_reliable},
      {"xfer", "one Figure-3/4 block transfer (threads=0 only)",
       {uint_key("approach", 3, 1, 5, "transfer approach (paper Sec. 5)"),
        uint_key("bytes", 16384, 32, 1 << 20, "bytes, a multiple of 32"),
        bool_key("consume", "", "receiver reads the data (default: a4, a5)"),
        uint_key("consume_us", 0, 0, 1'000'000,
                 "receiver waits this long after notify to read, us")},
       start_xfer},
      app_entry("app.stencil", "Jacobi halo exchange",
                {uint_key("nx", st.nx, 1, 1 << 16, "grid columns"),
                 uint_key("ny", st.ny, 1, 1 << 16, "grid rows"),
                 uint_key("iters", st.iters, 1, kNoLimit, "iterations"),
                 uint_key("point_cycles", st.point_cycles, 0, kNoLimit,
                          "aP cycles per point update")},
                [](const Args& a, const app::World&, app::AppResult* out) {
                  return app::make_stencil(
                      {a.u64("nx"), a.u64("ny"), a.u64("iters"),
                       a.u64("point_cycles")},
                      out);
                }),
      app_entry("app.allreduce", "ring-allreduce sweep, doubling sizes",
                {uint_key("min_elems", ar.min_elems, 1, 1 << 20,
                          "smallest vector"),
                 uint_key("max_elems", ar.max_elems, 1, 1 << 20,
                          "largest vector (>= min_elems)"),
                 uint_key("iters", ar.iters, 1, kNoLimit,
                          "allreduces per size")},
                [](const Args& a, const app::World&, app::AppResult* out) {
                  require(a.u64("max_elems") >= a.u64("min_elems"),
                          "max_elems", "must be at least min_elems");
                  return app::make_allreduce_sweep(
                      {a.u64("min_elems"), a.u64("max_elems"),
                       a.u64("iters")},
                      out);
                }),
      app_entry("app.kv", "key-value request/reply service",
                {uint_key("servers", kv.servers, 1, 63,
                          "server ranks (< ranks)"),
                 uint_key("requests", kv.requests, 1, kNoLimit,
                          "requests per client"),
                 uint_key("keys", kv.keys, 1, kNoLimit, "key space"),
                 uint_key("value_bytes", kv.value_bytes, 1, 1 << 16,
                          "value size"),
                 uint_key("seed", kv.seed, 0, kNoLimit, "request seed"),
                 uint_key("op_cycles", kv.op_cycles, 0, kNoLimit,
                          "server cycles per request")},
                [](const Args& a, const app::World& w,
                   app::AppResult* out) {
                  require(a.u64("servers") < w.nranks(), "servers",
                          "must leave a client rank (ranks=" +
                              std::to_string(w.nranks()) + ")");
                  return app::make_kv({a.u64("servers"), a.u64("requests"),
                                       a.u64("keys"), a.u64("value_bytes"),
                                       a.u64("seed"), a.u64("op_cycles")},
                                      out);
                }),
      {"pair", "messages from node 0 to node 1: one-way, streamed or "
               "ping-pong",
       {choice_key("kind", "basic", "basic|express|tagon", "message type"),
        uint_key("bytes", 8, 0, niu::kBasicMaxData,
                 "Basic payload, or TagOn staged bytes (48 or 80)"),
        uint_key("count", 1, 1, kNoLimit, "messages node 0 sends"),
        bool_key("reply", "0", "node 1 answers each one (ping-pong)"),
        bool_key("interrupt", "0", "receive on the rx interrupt, not polled"),
        choice_key("background", "idle", "idle|dma|scoma|both",
                   "load sharing the NIUs; the pair starts 200 us in")},
       start_pair},
      {"rxq", "messages into node 1's hardware or DRAM-resident rx queues",
       {uint_key("queues", 1, 0, 64,
                 "DRAM-resident queues on node 1; 0 = its hardware queue"),
        uint_key("count", 10, 1, 64, "messages per queue")},
       start_rxq},
      {"txarb", "an 8-byte probe behind a 32-message bulk stream",
       {uint_key("bulk_class", 1, 0, 3, "bulk queue's priority class"),
        uint_key("probe_class", 1, 0, 3, "probe queue's priority class")},
       start_txarb},
      {"access", "node 1's one timed shared-memory load or store",
       {choice_key("region", "scoma", "scoma|numa", "shared-memory window"),
        choice_key("op", "load", "load|store", "the access"),
        choice_key("home", "remote", "local|remote",
                   "the line's home: node 1 itself or node 0"),
        bool_key("warm", "0", "load it and purge the aP cache first"),
        bool_key("hw_miss", "0", "the aBIU sends S-COMA miss requests")},
       start_access},
      {"packets", "raw packets on the bare network, no NIUs",
       {uint_key("count", 1, 0, kNoLimit, "88-byte packets per stream"),
        bool_key("probe", "0", "a high-priority packet 20 us in"),
        bool_key("alltoall", "0", "every node streams to every other")},
       start_packets},
      {"diff", "propagate a 4 KB page: block transfer or diff",
       {choice_key("mode", "tracked", "full|value|tracked",
                   "whole page, value diff or clsSRAM-tracked diff"),
        uint_key("dirty", 16, 0, 128, "modified lines")},
       start_diff},
  };
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_registry();
  return all;
}

const Workload& workload(std::string_view name) {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return w;
    }
    names.push_back(w.name);
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "'" + suggestion(std::string(name), names));
}

}  // namespace sv::sys
