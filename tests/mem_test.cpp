// Unit tests for the memory substrate: backing store, the split-transaction
// snooping bus, DRAM, SRAM banks and clsSRAM.
#include <gtest/gtest.h>

#include "ckpt/io.hpp"
#include "mem/backing_store.hpp"
#include "mem/bus.hpp"
#include "mem/cls_sram.hpp"
#include "mem/dram.hpp"
#include "mem/sram.hpp"
#include "sim/coro.hpp"
#include "tests/test_util.hpp"

namespace sv::mem {
namespace {

TEST(BackingStore, ZeroFillAndRoundTrip) {
  BackingStore s;
  EXPECT_EQ(s.read_scalar<std::uint64_t>(0x1234), 0u);
  s.write_scalar<std::uint32_t>(0x1000, 0xDEADBEEF);
  EXPECT_EQ(s.read_scalar<std::uint32_t>(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(s.allocated_pages(), 1u);
}

TEST(BackingStore, CrossPageAccess) {
  BackingStore s;
  auto data = test::pattern_bytes(100);
  const Addr addr = BackingStore::kPageBytes - 50;
  s.write(addr, data);
  std::vector<std::byte> got(100);
  s.read(addr, got);
  EXPECT_EQ(got, data);
  EXPECT_EQ(s.allocated_pages(), 2u);
}

TEST(BackingStore, FillRange) {
  BackingStore s;
  s.fill(10, 20, std::byte{0xAB});
  EXPECT_EQ(s.read_scalar<std::uint8_t>(10), 0xAB);
  EXPECT_EQ(s.read_scalar<std::uint8_t>(29), 0xAB);
  EXPECT_EQ(s.read_scalar<std::uint8_t>(30), 0x00);
}

/// A scriptable bus device for protocol tests.
class FakeDevice : public BusDevice {
 public:
  explicit FakeDevice(std::string name) : name_(std::move(name)) {}

  std::string_view device_name() const override { return name_; }
  SnoopResult bus_snoop(const BusRequest& req) override {
    last_snooped = req;
    ++snoops;
    return next_snoop;
  }
  void bus_read_data(const BusRequest&, std::span<std::byte> out) override {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::byte>(0xC0 + i);
    }
    ++reads;
  }
  void bus_write_data(const BusRequest&,
                      std::span<const std::byte> in) override {
    captured.assign(in.begin(), in.end());
    ++writes;
  }
  void bus_observe(const BusRequest& req, const BusResult&) override {
    observed.push_back(req.op);
  }

  std::string name_;
  SnoopResult next_snoop;
  BusRequest last_snooped{};
  std::vector<std::byte> captured;
  std::vector<BusOp> observed;
  int snoops = 0, reads = 0, writes = 0;
};

class BusTest : public ::testing::Test {
 protected:
  sim::Kernel kernel;
  MemBus bus{kernel, "bus", {}};
  FakeDevice mem{"mem"};
  FakeDevice other{"other"};
  FakeDevice master{"master"};
  int mem_id = bus.attach(&mem);
  int other_id = bus.attach(&other);
  int master_id = bus.attach(&master);
};

TEST_F(BusTest, ReadCompletesWithResponderData) {
  mem.next_snoop = {SnoopAction::kAccept, 2};
  std::byte buf[8] = {};
  BusRequest req;
  req.op = BusOp::kReadSingle;
  req.addr = 0x100;
  req.size = 8;
  req.rdata = buf;
  BusResult res{};
  test::run_co(kernel, [](MemBus* b, int id, BusRequest r,
                          BusResult* out) -> sim::Co<void> {
    *out = co_await b->transact(id, r);
  }(&bus, master_id, req, &res));
  EXPECT_FALSE(res.retried);
  EXPECT_EQ(res.responder, mem_id);
  EXPECT_EQ(buf[0], std::byte{0xC0});
  EXPECT_EQ(mem.reads, 1);
  // Non-requesters observed the completed transaction.
  EXPECT_EQ(other.observed.size(), 1u);
  EXPECT_EQ(bus.stats().transactions.value(), 1u);
}

TEST_F(BusTest, RetryAbortsBeforeDataPhase) {
  mem.next_snoop = {SnoopAction::kAccept, 2};
  other.next_snoop = {SnoopAction::kRetry, 0};
  std::byte buf[8] = {};
  BusRequest req;
  req.op = BusOp::kReadSingle;
  req.addr = 0x100;
  req.size = 8;
  req.rdata = buf;
  BusResult res{};
  test::run_co(kernel, [](MemBus* b, int id, BusRequest r,
                          BusResult* out) -> sim::Co<void> {
    *out = co_await b->transact(id, r);
  }(&bus, master_id, req, &res));
  EXPECT_TRUE(res.retried);
  EXPECT_EQ(mem.reads, 0);
  EXPECT_EQ(bus.stats().retries.value(), 1u);
}

TEST_F(BusTest, TransactRetryEventuallySucceeds) {
  mem.next_snoop = {SnoopAction::kAccept, 2};
  other.next_snoop = {SnoopAction::kRetry, 0};
  // Stop retrying after the third snoop.
  std::byte buf[8] = {};
  BusRequest req;
  req.op = BusOp::kReadSingle;
  req.addr = 0x100;
  req.size = 8;
  req.rdata = buf;
  BusResult res{};
  kernel.schedule(1, [this] {});  // keep the queue warm
  sim::spawn([](MemBus* b, int id, BusRequest r, BusResult* out,
                FakeDevice* o) -> sim::Co<void> {
    // After two retried attempts the retrying device relents.
    (void)o;
    *out = co_await b->transact_retry(id, r);
  }(&bus, master_id, req, &res, &other));
  // Let two retries happen, then clear.
  kernel.run_until(kernel.now() + 200000);
  other.next_snoop = {};
  kernel.run();
  EXPECT_FALSE(res.retried);
  EXPECT_GE(bus.stats().retries.value(), 1u);
  EXPECT_EQ(mem.reads, 1);
}

// --- Retry-backoff vs fast-path arbitration (DESIGN.md §12) ----------------
//
// Regression for the retry-backoff edge: a retried op that re-arbitrates in
// the same cycle a fast path is granted must lose arbitration
// deterministically. Master A's read of the retried address backs off and
// re-enters transact at the exact tick — but after, in dispatch order —
// master B's bypass-eligible read engages the fast path. A's re-entry
// revokes B inside the arbitration window (wake at (t1, s0), address bus
// kept held), so A queues behind B exactly as it would behind B's slow-path
// address tenure, and the whole collision resolves bit-identically in both
// modes.

/// Accepts every address; stable, so it never blocks a bypass.
class AcceptAllDevice : public BusDevice {
 public:
  std::string_view device_name() const override { return "acceptall"; }
  SnoopResult bus_snoop(const BusRequest&) override {
    return {SnoopAction::kAccept, 2};
  }
  void bus_read_data(const BusRequest&, std::span<std::byte> out) override {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::byte>(0xA0 + i);
    }
  }
  bool bus_snoop_stable(const BusRequest&) const override { return true; }
};

/// ARTRYs the first `retries_left` transactions on `retry_addr`; ignores
/// everything else. Unstable for the armed address (the snoop has a side
/// effect), stable everywhere else — so it pins A to the slow path without
/// blocking B's bypass.
class RetryOnceDevice : public BusDevice {
 public:
  Addr retry_addr = 0;
  int retries_left = 0;

  std::string_view device_name() const override { return "retrier"; }
  SnoopResult bus_snoop(const BusRequest& req) override {
    if (retries_left > 0 && req.addr == retry_addr) {
      --retries_left;
      return {SnoopAction::kRetry, 0};
    }
    return {};
  }
  bool bus_snoop_stable(const BusRequest& req) const override {
    return !(retries_left > 0 && req.addr == retry_addr);
  }
};

/// A master that only issues; its snoops are trivially stable.
class QuietMaster : public BusDevice {
 public:
  explicit QuietMaster(std::string name) : name_(std::move(name)) {}
  std::string_view device_name() const override { return name_; }
  SnoopResult bus_snoop(const BusRequest&) override { return {}; }
  bool bus_snoop_stable(const BusRequest&) const override { return true; }

 private:
  std::string name_;
};

struct CollisionOutcome {
  sim::Tick a_done = 0;
  sim::Tick b_done = 0;
  std::string order;  // completion order, e.g. "BA"
  std::uint64_t retries = 0;
  std::uint64_t transactions = 0;
  std::uint64_t fast_hits = 0;
};

/// One run of the collision scenario. `with_a` = false runs B alone (the
/// control that proves B's read is bypass-eligible at the collision tick).
CollisionOutcome run_retry_fastpath_collision(bool fastpath, bool with_a) {
  constexpr Addr kRetried = 0x100;
  constexpr Addr kBypassed = 0x200;
  // A's timeline with the default 15000 ps clock and 4-cycle backoff:
  // entry at 0, align at 0, ARTRY at the 2-cycle tenure end (30000),
  // re-arbitration at 30000 + 4 * 15000 = 90000.
  constexpr sim::Tick kCollisionTick = 90000;

  sim::Kernel kernel;
  MemBus::Params p;
  p.fastpath = fastpath;
  MemBus bus{kernel, "bus", p};
  AcceptAllDevice responder;
  RetryOnceDevice retrier;
  retrier.retry_addr = kRetried;
  retrier.retries_left = 1;
  QuietMaster ma{"ma"};
  QuietMaster mb{"mb"};
  bus.attach(&responder);
  bus.attach(&retrier);
  const int a_id = bus.attach(&ma);
  const int b_id = bus.attach(&mb);

  CollisionOutcome out;
  std::byte abuf[8] = {};
  std::byte bbuf[8] = {};
  if (with_a) {
    BusRequest req;
    req.op = BusOp::kReadSingle;
    req.addr = kRetried;
    req.size = 8;
    req.rdata = abuf;
    sim::spawn([](MemBus* b, int id, BusRequest r, sim::Kernel* k,
                  CollisionOutcome* o) -> sim::Co<void> {
      co_await b->transact_retry(id, r);
      o->a_done = k->now();
      o->order += 'A';
    }(&bus, a_id, req, &kernel, &out));
  }
  // Scheduled before A's backoff delay exists, so at the collision tick
  // B's issue dispatches first: its fast path is granted, then A
  // re-arbitrates in the same cycle.
  kernel.schedule_abs(kCollisionTick, [&bus, &kernel, &out, bbuf = &bbuf[0],
                                       b_id] {
    BusRequest req;
    req.op = BusOp::kReadSingle;
    req.addr = kBypassed;
    req.size = 8;
    req.rdata = bbuf;
    sim::spawn([](MemBus* b, int id, BusRequest r, sim::Kernel* k,
                  CollisionOutcome* o) -> sim::Co<void> {
      co_await b->transact(id, r);
      o->b_done = k->now();
      o->order += 'B';
    }(&bus, b_id, req, &kernel, &out));
  });
  kernel.run();
  out.retries = bus.stats().retries.value();
  out.transactions = bus.stats().transactions.value();
  out.fast_hits = bus.fast_path_hits();
  return out;
}

TEST(BusRetryFastPath, ControlProvesBypassEligibility) {
  // B alone, fast mode: the read completes through the bypass, proving the
  // collision test below really engages (and then revokes) a fast path.
  const auto solo = run_retry_fastpath_collision(true, false);
  EXPECT_EQ(solo.order, "B");
  EXPECT_EQ(solo.fast_hits, 1u);
}

TEST(BusRetryFastPath, RetryLosesSameCycleArbitrationDeterministically) {
  const auto fast = run_retry_fastpath_collision(true, true);
  const auto slow = run_retry_fastpath_collision(false, true);

  // The retried master loses the same-cycle arbitration in both modes: B
  // completes first, A re-acquires only after B's tenures finish.
  EXPECT_EQ(fast.order, "BA");
  EXPECT_EQ(slow.order, "BA");
  EXPECT_GT(fast.a_done, fast.b_done);

  // And the whole collision resolves bit-identically: same completion
  // ticks, same stat counts. B's granted-then-revoked bypass finishes on
  // the slow schedule, so it does not count as a fast-path hit.
  EXPECT_EQ(fast.a_done, slow.a_done);
  EXPECT_EQ(fast.b_done, slow.b_done);
  EXPECT_EQ(fast.retries, slow.retries);
  EXPECT_EQ(fast.retries, 1u);
  EXPECT_EQ(fast.transactions, slow.transactions);
  EXPECT_EQ(fast.fast_hits, 0u);
}

TEST_F(BusTest, InterventionSuppliesAndReflects) {
  mem.next_snoop = {SnoopAction::kAccept, 6};
  other.next_snoop = {SnoopAction::kModified, 3};
  std::byte buf[kLineBytes] = {};
  BusRequest req;
  req.op = BusOp::kRead;
  req.addr = 0x200;
  req.size = kLineBytes;
  req.rdata = buf;
  BusResult res{};
  test::run_co(kernel, [](MemBus* b, int id, BusRequest r,
                          BusResult* out) -> sim::Co<void> {
    *out = co_await b->transact(id, r);
  }(&bus, master_id, req, &res));
  EXPECT_TRUE(res.intervened);
  EXPECT_TRUE(res.shared);
  EXPECT_EQ(res.responder, other_id);
  // Intervention data was reflected into the accepting device (memory).
  EXPECT_EQ(mem.writes, 1);
  EXPECT_EQ(mem.captured.size(), kLineBytes);
  EXPECT_EQ(mem.captured[0], std::byte{0xC0});
}

TEST_F(BusTest, AddressOnlyKillHasNoDataPhase) {
  BusRequest req;
  req.op = BusOp::kKill;
  req.addr = 0x300;
  req.size = 0;
  BusResult res{};
  test::run_co(kernel, [](MemBus* b, int id, BusRequest r,
                          BusResult* out) -> sim::Co<void> {
    *out = co_await b->transact(id, r);
  }(&bus, master_id, req, &res));
  EXPECT_FALSE(res.retried);
  EXPECT_EQ(mem.reads, 0);
  EXPECT_EQ(mem.writes, 0);
  EXPECT_EQ(bus.stats().address_only.value(), 1u);
  // Kill was observed by snoopers.
  ASSERT_EQ(other.observed.size(), 1u);
  EXPECT_EQ(other.observed[0], BusOp::kKill);
}

TEST_F(BusTest, NoResponderIsReported) {
  std::byte buf[8] = {};
  BusRequest req;
  req.op = BusOp::kReadSingle;
  req.addr = 0x400;
  req.size = 8;
  req.rdata = buf;
  BusResult res{};
  test::run_co(kernel, [](MemBus* b, int id, BusRequest r,
                          BusResult* out) -> sim::Co<void> {
    *out = co_await b->transact(id, r);
  }(&bus, master_id, req, &res));
  EXPECT_TRUE(res.no_responder);
}

TEST_F(BusTest, WriteDataReachesResponder) {
  mem.next_snoop = {SnoopAction::kAccept, 1};
  auto data = test::pattern_bytes(kLineBytes);
  BusRequest req;
  req.op = BusOp::kWriteLine;
  req.addr = 0x500;
  req.size = kLineBytes;
  req.wdata = data.data();
  test::run_co(kernel, [](MemBus* b, int id, BusRequest r) -> sim::Co<void> {
    co_await b->transact(id, r);
  }(&bus, master_id, req));
  EXPECT_EQ(mem.captured, data);
}

TEST_F(BusTest, DataTenuresSerializeOnDataBus) {
  mem.next_snoop = {SnoopAction::kAccept, 0};
  // Two line reads back to back: each needs 4 beats; with 2 address cycles
  // each, total completion must reflect serialized data tenures.
  std::byte b1[kLineBytes], b2[kLineBytes];
  int done = 0;
  for (std::byte* buf : {b1, b2}) {
    BusRequest req;
    req.op = BusOp::kRead;
    req.addr = 0x600;
    req.size = kLineBytes;
    req.rdata = buf;
    sim::spawn([](MemBus* b, int id, BusRequest r, int* d) -> sim::Co<void> {
      co_await b->transact(id, r);
      ++*d;
    }(&bus, master_id, req, &done));
  }
  kernel.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(bus.stats().data_beats.value(), 8u);
  // 2 address cycles + 4 beats = 6 cycles minimum for the first; the second
  // pipelines its address tenure but serializes data: >= 10 cycles total.
  EXPECT_GE(kernel.now(), 10 * bus.clock().period());
}

TEST(DramTest, ClaimsOnlyItsRanges) {
  sim::Kernel kernel;
  DramCtrl::Params p;
  p.ranges.push_back({0x0, 0x1000});
  p.ranges.push_back({0x8000, 0x1000});
  DramCtrl dram(kernel, "dram", p);
  EXPECT_TRUE(dram.claims(0x0));
  EXPECT_TRUE(dram.claims(0xFFF));
  EXPECT_FALSE(dram.claims(0x1000));
  EXPECT_TRUE(dram.claims(0x8000));
  EXPECT_FALSE(dram.claims(0x9000));

  BusRequest req;
  req.op = BusOp::kRead;
  req.addr = 0x100;
  EXPECT_EQ(dram.bus_snoop(req).action, SnoopAction::kAccept);
  req.addr = 0x2000;
  EXPECT_EQ(dram.bus_snoop(req).action, SnoopAction::kIgnore);
}

TEST(DramTest, EndToEndReadWriteOverBus) {
  sim::Kernel kernel;
  MemBus bus(kernel, "bus", {});
  DramCtrl::Params p;
  p.ranges.push_back({0x0, 0x10000});
  DramCtrl dram(kernel, "dram", p);
  bus.attach(&dram);
  FakeDevice master{"m"};
  const int mid = bus.attach(&master);

  auto data = test::pattern_bytes(kLineBytes);
  BusRequest wr;
  wr.op = BusOp::kWriteLine;
  wr.addr = 0x40;
  wr.size = kLineBytes;
  wr.wdata = data.data();
  std::byte buf[kLineBytes] = {};
  BusRequest rd;
  rd.op = BusOp::kRead;
  rd.addr = 0x40;
  rd.size = kLineBytes;
  rd.rdata = buf;
  test::run_co(kernel, [](MemBus* b, int id, BusRequest w,
                          BusRequest r) -> sim::Co<void> {
    co_await b->transact(id, w);
    co_await b->transact(id, r);
  }(&bus, mid, wr, rd));
  EXPECT_EQ(std::vector<std::byte>(buf, buf + kLineBytes), data);
  EXPECT_EQ(dram.reads().value(), 1u);
  EXPECT_EQ(dram.writes().value(), 1u);
}

TEST(SramTest, PortsAreIndependentResources) {
  sim::Kernel kernel;
  DualPortedSram sram(kernel, "sram", {});
  sim::Tick bus_done = 0, ibus_done = 0;
  sim::spawn([](DualPortedSram* s, sim::Kernel* k,
                sim::Tick* out) -> sim::Co<void> {
    co_await s->access(DualPortedSram::Port::kBus, 64);
    *out = k->now();
  }(&sram, &kernel, &bus_done));
  sim::spawn([](DualPortedSram* s, sim::Kernel* k,
                sim::Tick* out) -> sim::Co<void> {
    co_await s->access(DualPortedSram::Port::kIBus, 64);
    *out = k->now();
  }(&sram, &kernel, &ibus_done));
  kernel.run();
  // Both finish at the same time: dual porting means no cross-port wait.
  EXPECT_EQ(bus_done, ibus_done);
  EXPECT_GT(bus_done, 0u);
}

TEST(SramTest, SamePortSerializes) {
  sim::Kernel kernel;
  DualPortedSram sram(kernel, "sram", {});
  sim::Tick first = 0, second = 0;
  for (sim::Tick* out : {&first, &second}) {
    sim::spawn([](DualPortedSram* s, sim::Kernel* k,
                  sim::Tick* o) -> sim::Co<void> {
      co_await s->access(DualPortedSram::Port::kBus, 64);
      *o = k->now();
    }(&sram, &kernel, out));
  }
  kernel.run();
  EXPECT_EQ(second, 2 * first);
}

TEST(SramTest, BoundsChecked) {
  sim::Kernel kernel;
  DualPortedSram::Params p;
  p.size = 1024;
  DualPortedSram sram(kernel, "sram", p);
  std::byte buf[8];
  EXPECT_THROW(sram.read(1020, buf), std::out_of_range);
  EXPECT_THROW(sram.write(1024, buf), std::out_of_range);
  EXPECT_NO_THROW(sram.write(1016, buf));
}

TEST(ClsSramTest, StateRoundTripAndRange) {
  sim::Kernel kernel;
  ClsSram::Params p;
  p.region_base = 0x8000'0000;
  p.region_size = 64 * 1024;
  ClsSram cls(kernel, "cls", p);

  EXPECT_TRUE(cls.covers(0x8000'0000));
  EXPECT_FALSE(cls.covers(0x8001'0000));
  EXPECT_EQ(cls.peek(0x8000'0000), 0);

  cls.poke(0x8000'0040, 3);
  EXPECT_EQ(cls.peek(0x8000'0040), 3);
  EXPECT_EQ(cls.peek(0x8000'005F), 3);  // same line
  EXPECT_EQ(cls.peek(0x8000'0060), 0);  // next line

  test::run_co(kernel, cls.write_state_range(0x8000'0100, 128, 2));
  for (Addr a = 0x8000'0100; a < 0x8000'0180; a += kLineBytes) {
    EXPECT_EQ(cls.peek(a), 2);
  }
  EXPECT_EQ(cls.peek(0x8000'0180), 0);
  EXPECT_THROW((void)cls.peek(0x9000'0000), std::out_of_range);
}

TEST(ClsSramTest, CheckpointDigestsOnlyMaterializedChunks) {
  // 16 chunks of 4 096 lines whose power-on value alternates by line.
  sim::Kernel kernel;
  ClsSram::Params p;
  p.region_base = 0x8000'0000;
  p.region_size = 16 * 4096 * kLineBytes;
  std::uint64_t default_calls = 0;
  const auto make = [&] {
    auto cls = std::make_unique<ClsSram>(kernel, "cls", p);
    cls->set_default([&default_calls, base = p.region_base](Addr a) {
      ++default_calls;
      return static_cast<std::uint8_t>((a - base) / kLineBytes % 2 + 1);
    });
    return cls;
  };
  const auto saved = [](const ClsSram& cls) {
    ckpt::Writer w;
    cls.ckpt_save(w);
    return w.data();
  };
  const Addr x = p.region_base + 5 * 4096 * kLineBytes + 7 * kLineBytes;
  const Addr y = p.region_base + 5 * 4096 * kLineBytes + 9 * kLineBytes;

  // A capture expands no virtual chunk through the default function.
  const auto a = make();
  a->poke(x, 9);
  default_calls = 0;
  const std::vector<std::byte> a_bytes = saved(*a);
  EXPECT_EQ(default_calls, 0u);

  // The same pokes write the same bytes; one differing line changes them.
  const auto b = make();
  b->poke(x, 9);
  EXPECT_EQ(saved(*b), a_bytes);
  const auto c = make();
  c->poke(x, 9);
  c->poke(p.region_base, 9);
  EXPECT_NE(saved(*c), a_bytes);
  const auto d = make();
  d->poke(x, 10);
  EXPECT_NE(saved(*d), a_bytes);

  // A line poked back to its default leaves its chunk materialized, and
  // the chunk digests by its bytes, whichever line took it there and back.
  const auto there_and_back = [&](Addr line) {
    auto cls = make();
    const std::uint8_t def = cls->peek(line);
    cls->poke(line, 9);
    cls->poke(line, def);
    EXPECT_EQ(cls->chunks_materialized(), 1u);
    return saved(*cls);
  };
  EXPECT_EQ(there_and_back(x), there_and_back(x));
  EXPECT_EQ(there_and_back(x), there_and_back(y));
}

}  // namespace
}  // namespace sv::mem
