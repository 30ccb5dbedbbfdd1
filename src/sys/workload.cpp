#include "sys/workload.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "msg/dma.hpp"
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
  std::string got = "'" + cfg.get_string(k.name) + "'";
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
                 "worker threads; >0 runs one event domain per node"),
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
      uint_key("trace_buf", trace::Tracer::kDefaultCapacity, 1,
               std::size_t{1} << 28, "trace ring capacity, events"),
      text_key("trace_stream", "stream Chrome JSON to a file (threads=0 only)"),
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
      co_await ep->send_express(static_cast<std::uint8_t>(map.express(dst)),
                                0, static_cast<std::uint32_t>(i));
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
  run->done[self] = 1;
}

std::unique_ptr<Run> start_msg(Machine& machine, const Args& a,
                               bool express) {
  require_two_nodes(machine, express ? "express" : "msg");
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
    r->done[1] = 1;
  }(run.get()));
  run->describe = [bytes](const Run& r) {
    const double us = r.elapsed_us();
    return format("dma: %u bytes in %.1f us = %.1f MB/s", bytes, us,
                  static_cast<double>(bytes) / us);
  };
  return run;
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
    const auto v = static_cast<std::uint32_t>(i);
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
  run->done[self] = 1;
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
  run->done[self] = 1;
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
  run->describe = [count, bytes](const Run& r) {
    std::uint64_t retx = 0;
    std::uint64_t corrupt = 0;
    for (const auto& ch : r.channels) {
      retx += ch->stats().retransmitted.value();
      corrupt += ch->stats().corrupt_rejected.value();
    }
    const auto audit = r.machine.network().audit();
    const double us = r.elapsed_us();
    return format(
        "reliable ring: %zu nodes x %llu msgs x %llu B in %.1f us "
        "(%.1f MB/s payload), %llu retransmits, %llu crc rejects, "
        "%llu/%llu packets dropped%s",
        r.machine.size(), static_cast<ull>(count), static_cast<ull>(bytes),
        us, static_cast<double>(r.machine.size() * count * bytes) / us,
        static_cast<ull>(retx), static_cast<ull>(corrupt),
        static_cast<ull>(audit.dropped), static_cast<ull>(audit.injected),
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
  const auto res =
      xfer::BlockTransferHarness(machine).run(approach, spec, opt);
  const auto us = [](sim::Tick t) { return static_cast<double>(t) / 1e6; };
  const std::string consumed =
      opt.consume
          ? format(", consumed %f us", us(res.consume_time - res.start))
          : "";
  const std::string line = format(
      "approach %d, %u bytes: notify %.2f us (%.1f MB/s)%s, "
      "tx aP %.2f us / tx sP %.2f us / rx sP %.2f us, %s",
      approach, bytes, us(res.latency()), res.bandwidth_mbps(bytes),
      consumed.c_str(), us(res.sender_ap_busy), us(res.sender_sp_busy),
      us(res.receiver_sp_busy), res.ok ? "verified" : "VERIFY FAILED");
  auto run = std::make_unique<Run>(machine);
  run->verified = res.ok;
  run->describe = [line](const Run&) { return line; };
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
        bool_key("consume", "", "receiver reads the data (default: a4, a5)")},
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
