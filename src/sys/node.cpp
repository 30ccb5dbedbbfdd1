#include "sys/node.hpp"

#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>

namespace sv::sys {

Node::Node(sim::Kernel& kernel, const std::string& name, sim::NodeId id,
           net::Network& network, Params params)
    : id_(id), num_nodes_(network.num_nodes()), params_(params) {
  bus_ = std::make_unique<mem::MemBus>(kernel, name + ".bus", params.bus);

  mem::DramCtrl::Params dram;
  dram.ranges.push_back({niu::kApDramBase, params.dram_size});
  dram.ranges.push_back({niu::kScomaBase, params.scoma_size});
  dram.ranges.push_back({fw::kNumaBackingBase, params.numa_backing_size});
  dram_ = std::make_unique<mem::DramCtrl>(kernel, name + ".dram", dram);
  bus_->attach(dram_.get());

  cache_ = std::make_unique<mem::SnoopingCache>(
      kernel, name + ".L2", *bus_, mem::SnoopingCache::Params{});
  ap_ = std::make_unique<cpu::Processor>(
      kernel, name + ".aP", *bus_, cache_.get(),
      cpu::Processor::Params{cpu::kApClock});

  niu_ = std::make_unique<niu::Niu>(
      kernel, name + ".NIU", id, *bus_, network, kASramBytes, kSSramBytes,
      mem::ClsSram::Params{niu::kScomaBase, params.scoma_size});

  // The sP runs uncached out of its own space; it reaches the node through
  // the sBIU only, so it is not attached to the aP bus.
  sp_ = std::make_unique<cpu::Processor>(
      kernel, name + ".sP", *bus_, nullptr,
      cpu::Processor::Params{cpu::kSpClock});

  auto& sbiu = niu_->sbiu();
  dma_ = std::make_unique<fw::DmaEngine>(kernel, name + ".fw.dma", *sp_,
                                         sbiu);
  numa_ = std::make_unique<fw::NumaEngine>(
      kernel, name + ".fw.numa", *sp_, sbiu,
      fw::NumaEngine::Params{num_nodes_});
  if (params.enable_scoma) {
    scoma_ = std::make_unique<fw::ScomaEngine>(
        kernel, name + ".fw.scoma", *sp_, sbiu,
        fw::ScomaEngine::Params{num_nodes_});
  }
  miss_ = std::make_unique<fw::MissService>(kernel, name + ".fw.miss", *sp_,
                                            sbiu);
  chunk_ = std::make_unique<fw::ChunkOpener>(kernel, name + ".fw.chunk", *sp_,
                                             sbiu, niu::ABiu::kClsReadWrite);
}

void Node::setup_tx_queues() {
  auto& ctrl = niu_->ctrl();

  auto& t0 = ctrl.txq(kTxUser0);
  t0.enabled = true;
  t0.bank = niu::SramBank::kASram;
  t0.base = kTx0Base;
  t0.slots = kUserSlots;
  t0.slot_bytes = niu::kBasicSlotBytes;
  t0.priority_class = 1;

  auto& te = ctrl.txq(kTxExpress);
  te.enabled = true;
  te.express = true;
  te.bank = niu::SramBank::kASram;
  te.base = kExTxBase;
  te.slots = kExpressSlots;
  te.slot_bytes = niu::kExpressSlotBytes;
  te.priority_class = 2;  // express messages jump ahead of bulk traffic
  // The express vdest is only 8 bits: OR the express section's base into
  // the translated index so stores address the express table section.
  te.and_mask = 0x00FF;
  te.or_mask = 0;  // rewritten in write_translation_table()

  auto& t1 = ctrl.txq(kTxUser1);
  t1.enabled = true;
  t1.bank = niu::SramBank::kASram;
  t1.base = kTx1Base;
  t1.slots = kUserSlots;
  t1.slot_bytes = niu::kBasicSlotBytes;
  t1.priority_class = 1;

  auto& tr = ctrl.txq(kTxRaw);
  tr.enabled = true;
  tr.raw_allowed = true;
  tr.bank = niu::SramBank::kASram;
  tr.base = kTxRawBase;
  tr.slots = 16;
  tr.slot_bytes = niu::kBasicSlotBytes;
  tr.priority_class = 1;
}

void Node::setup_rx_queues() {
  auto& ctrl = niu_->ctrl();

  auto bind = [&](unsigned hwq, net::QueueId logical, niu::SramBank bank,
                  std::uint32_t base, std::uint16_t slots,
                  std::uint16_t slot_bytes, bool express) {
    auto& r = ctrl.rxq(hwq);
    r.enabled = true;
    r.express = express;
    r.bank = bank;
    r.base = base;
    r.slots = slots;
    r.slot_bytes = slot_bytes;
    r.logical = logical;
    r.full_policy = niu::RxFullPolicy::kDivert;
  };

  bind(kRxUser0, msg::AddressMap::kUser0L, niu::SramBank::kASram, kRx0Base,
       kUserSlots, niu::kBasicSlotBytes, false);
  bind(kRxExpress, msg::AddressMap::kExpressL, niu::SramBank::kASram,
       kExRxBase, kExpressSlots, niu::kExpressSlotBytes, true);
  bind(kRxUser1, msg::AddressMap::kUser1L, niu::SramBank::kASram, kRx1Base,
       kUserSlots, niu::kBasicSlotBytes, false);

  // Firmware queues live in sSRAM.
  auto fw_bind = [&](unsigned hwq, net::QueueId logical) {
    bind(hwq, logical, niu::SramBank::kSSram,
         kFwQueueBase + (hwq - 8) * kFwQueueStride, kFwSlots,
         niu::kBasicSlotBytes, false);
  };
  fw_bind(fw::kDmaReqQ, fw::kDmaReqL);
  fw_bind(fw::kNumaReqQ, fw::kNumaReqL);
  fw_bind(fw::kNumaRspQ, fw::kNumaRspL);
  fw_bind(fw::kScomaReqQ, fw::kScomaReqL);
  fw_bind(fw::kScomaRspQ, fw::kScomaRspL);
  fw_bind(fw::kChunkArrivalQ, niu::kChunkArrivalQueue);
  fw_bind(fw::kFwDoneQ, fw::kFwDoneL);
  // The miss queue has no logical binding: it catches lookup misses.
  auto& miss = ctrl.rxq(niu::kMissRxQueue);
  miss.enabled = true;
  miss.bank = niu::SramBank::kSSram;
  miss.base = kFwQueueBase + (niu::kMissRxQueue - 8) * kFwQueueStride;
  miss.slots = kFwSlots;
  miss.slot_bytes = niu::kBasicSlotBytes;
  miss.logical = niu::RxQueueState::kLogicalNone;
  miss.full_policy = niu::RxFullPolicy::kDrop;
}

Node::SsramRegion Node::translation_table_region(const msg::AddressMap& map) {
  const auto bytes =
      static_cast<std::uint32_t>(map.table_entries() * niu::XlatEntry::kBytes);
  const bool fits_low = kXlatBase + bytes <= fw::NumaEngine::kScratch;
  return {"translation table", fits_low ? kXlatBase : kXlatHighBase, bytes};
}

std::vector<Node::SsramRegion> Node::ssram_regions(
    const msg::AddressMap& map) {
  std::vector<SsramRegion> regions(std::begin(kSsramRegions),
                                   std::end(kSsramRegions));
  regions.push_back(translation_table_region(map));
  return regions;
}

mem::BackingStore Node::encode_translation_table(
    const msg::AddressMap& map) {
  std::vector<std::byte> table(map.table_entries() * niu::XlatEntry::kBytes);
  const std::size_t stride = map.stride();
  for (std::size_t v = 0; v < map.table_entries(); ++v) {
    niu::XlatEntry e;
    e.valid = true;
    e.priority = net::kPriorityLow;
    const auto n = static_cast<std::uint16_t>(v % stride);
    if (n >= map.nodes) {
      e.valid = false;
    }
    switch (v / stride) {
      case 0:
        e.phys_node = n;
        e.logical_queue = msg::AddressMap::kUser0L;
        break;
      case 1:
        e.phys_node = n;
        e.logical_queue = fw::kDmaReqL;
        break;
      case 2:
        e.phys_node = n;
        e.logical_queue = msg::AddressMap::kUser1L;
        break;
      case 3:
        e.phys_node = n;
        e.logical_queue = msg::AddressMap::kExpressL;
        break;
      default:
        e.valid = false;
        break;
    }
    e.encode(table.data() + v * niu::XlatEntry::kBytes);
  }
  mem::BackingStore store;
  store.write(translation_table_region(map).base, table);
  return store;
}

void Node::check_ssram_layout(std::span<const SsramRegion> regions,
                              std::uint32_t bank_bytes) {
  auto describe = [](const SsramRegion& r) {
    char range[48];
    std::snprintf(range, sizeof(range), " [0x%05X, 0x%05X)", r.base,
                  r.base + r.bytes);
    return std::string(r.name) + range;
  };
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const SsramRegion& a = regions[i];
    if (std::uint64_t{a.base} + a.bytes > bank_bytes) {
      throw std::invalid_argument("sSRAM: " + describe(a) +
                                  " ends past the bank (" +
                                  std::to_string(bank_bytes) + " bytes)");
    }
    for (std::size_t j = i + 1; j < regions.size(); ++j) {
      const SsramRegion& b = regions[j];
      if (a.base < b.base + b.bytes && b.base < a.base + a.bytes) {
        throw std::invalid_argument("sSRAM: " + describe(a) + " overlaps " +
                                    describe(b));
      }
    }
  }
}

void Node::write_translation_table(const msg::AddressMap& map,
                                   const mem::BackingStore& table) {
  const SsramRegion region = translation_table_region(map);
  check_ssram_layout(ssram_regions(map),
                     static_cast<std::uint32_t>(niu_->ssram().size()));

  auto& ctrl = niu_->ctrl();
  ctrl.write_reg(niu::SysReg::kTranslationBase, region.base);
  ctrl.write_reg(niu::SysReg::kTranslationSize, map.table_entries());

  // The express queue's 8-bit vdest indexes the express section via the
  // queue's OR mask (sections are power-of-two aligned).
  ctrl.txq(kTxExpress).or_mask = map.express_section();

  niu_->ssram().adopt(table, region.base, region.bytes);
}

void Node::setup(const msg::AddressMap& map,
                 const mem::BackingStore& xlat_table) {
  if (setup_done_) {
    throw std::logic_error("Node::setup called twice");
  }
  setup_done_ = true;
  setup_tx_queues();
  setup_rx_queues();
  write_translation_table(map, xlat_table);
  if (scoma_) {
    scoma_->init_cls();
  }
}

void Node::start() {
  if (!setup_done_) {
    throw std::logic_error("Node::start before setup");
  }
  niu_->start();
  dma_->start();
  numa_->start();
  if (scoma_) {
    scoma_->start();
  }
  miss_->start();
  chunk_->start();
}

msg::Endpoint::Config Node::endpoint_config() {
  msg::Endpoint::Config cfg;
  cfg.tx = {kTxUser0, kTx0Base, kUserSlots, niu::kBasicSlotBytes};
  cfg.rx = {kRxUser0, kRx0Base, kUserSlots, niu::kBasicSlotBytes};
  cfg.express_tx = {kTxExpress, kExTxBase, kExpressSlots,
                    niu::kExpressSlotBytes};
  cfg.express_rx = {kRxExpress, kExRxBase, kExpressSlots,
                    niu::kExpressSlotBytes};
  cfg.raw_tx = {kTxRaw, kTxRawBase, 16, niu::kBasicSlotBytes};
  cfg.staging_base = kStagingBase;
  cfg.arrival = &niu_->ctrl().rx_arrival();
  return cfg;
}

msg::Endpoint::Config Node::endpoint1_config() {
  msg::Endpoint::Config cfg;
  cfg.tx = {kTxUser1, kTx1Base, kUserSlots, niu::kBasicSlotBytes};
  cfg.rx = {kRxUser1, kRx1Base, kUserSlots, niu::kBasicSlotBytes};
  // No express or raw queues for the second job; the staging area is
  // split so the two jobs cannot clobber each other's TagOn data.
  cfg.staging_base = kStagingBase + 0x8000;
  cfg.arrival = &niu_->ctrl().rx_arrival();
  return cfg;
}

}  // namespace sv::sys
