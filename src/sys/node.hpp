// One StarT-Voyager node (paper Figure 2): an unmodified PowerPC SMP —
// 604e aP, in-line L2 cache, memory controller and DRAM on a 60x bus —
// with the NIU in the second processor slot and the sP running firmware.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "cpu/processor.hpp"
#include "fw/dma.hpp"
#include "fw/miss_service.hpp"
#include "fw/numa.hpp"
#include "fw/reflective.hpp"
#include "fw/scoma.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "msg/endpoint.hpp"
#include "niu/niu.hpp"

namespace sv::sys {

class Node {
 public:
  struct Params {
    std::size_t num_nodes = 2;
    mem::Addr dram_size = niu::kApDramDefaultSize;
    mem::Addr scoma_size = niu::kScomaDefaultSize;
    mem::Addr numa_backing_size = 64ull * 1024 * 1024;

    mem::MemBus::Params bus;
    mem::SnoopingCache::Params cache;
    cpu::Processor::Params ap;       // 166 MHz
    cpu::Processor::Params sp;       // 100 MHz
    niu::Niu::Params niu;

    fw::FwService::Costs fw_costs;
    fw::FwQueueMap fw_queues;
    std::uint32_t scoma_page_bytes = 4096;

    bool enable_scoma = true;

    Params() { sp.clock = sim::Clock{10000}; }
  };

  // --- Standard queue plan (user side; firmware queues in fw::FwQueueMap) --
  // Hardware tx queues:
  static constexpr unsigned kTxUser0 = 0;    // basic, translated
  static constexpr unsigned kTxExpress = 1;  // express, translated
  static constexpr unsigned kTxUser1 = 2;    // basic, translated
  static constexpr unsigned kTxRaw = 3;      // basic, raw allowed (trusted)
  // Hardware rx queues:
  static constexpr unsigned kRxUser0 = 0;    // logical AddressMap::kUser0L
  static constexpr unsigned kRxExpress = 1;  // logical AddressMap::kExpressL
  static constexpr unsigned kRxUser1 = 2;    // logical AddressMap::kUser1L

  // aSRAM layout (bank-relative offsets).
  static constexpr std::uint32_t kTx0Base = 0x0100;
  static constexpr std::uint32_t kExTxBase = 0x1900;
  static constexpr std::uint32_t kRx0Base = 0x2000;
  static constexpr std::uint32_t kExRxBase = 0x3800;
  static constexpr std::uint32_t kTx1Base = 0x4000;
  static constexpr std::uint32_t kRx1Base = 0x5800;
  static constexpr std::uint32_t kTxRawBase = 0x7000;
  static constexpr std::uint32_t kStagingBase = 0x8000;
  static constexpr std::uint16_t kUserSlots = 64;
  static constexpr std::uint16_t kExpressSlots = 128;

  // sSRAM layout (bank-relative offsets). Every region any component uses
  // is listed in kSsramRegions; setup() rejects a layout in which two
  // overlap.
  struct SsramRegion {
    std::string_view name;
    std::uint32_t base;
    std::uint32_t bytes;
  };
  // The translation table (4 sections of bit_ceil(nodes) 8-byte entries)
  // sits at kXlatBase while it ends by the firmware scratch, which covers
  // up to 64 nodes; a larger table moves to kXlatHighBase.
  static constexpr std::uint32_t kXlatBase = 0x0000;
  static constexpr std::uint32_t kXlatHighBase = 0x28000;
  // Firmware receive queues: hw rx queue q at kFwQueueBase + (q - 8) *
  // kFwQueueStride.
  static constexpr std::uint32_t kFwQueueBase = 0x1000;
  static constexpr std::uint32_t kFwQueueStride = 0x1800;  // 64 x 96
  static constexpr std::uint16_t kFwSlots = 64;
  // Approach-2 (sP copy) firmware: its two receive queues, scratch slot
  // and one-chunk staging buffer.
  static constexpr std::uint32_t kSpCopyQueueBase = 0xD000;
  static constexpr std::uint32_t kSpCopyScratch = 0x10FC0;
  static constexpr std::uint32_t kSpCopyStaging = 0x11000;
  // The old copy a value-diff block transfer compares a 4 KB page against.
  static constexpr std::uint32_t kDiffCopyBase = 0x18000;
  // DMA firmware: two areas of two block-xfer buffers, its scratch slot
  // just below.
  static constexpr std::uint32_t kDmaStagingBase = 0x20000;
  // Approaches 4/5: one block transfer's two staging buffers.
  static constexpr std::uint32_t kA45StagingBase = 0x24000;

  /// Every fixed region, that is all but the translation table. The
  /// firmware scratch slots (the landing area of FwService::read_ap) are
  /// the engines' own constants.
  static constexpr SsramRegion kSsramRegions[] = {
      {"NUMA scratch", fw::NumaEngine::kScratch, 64},
      {"S-COMA scratch", fw::ScomaEngine::kScratch, 64},
      {"chunk-opener scratch", fw::ChunkOpener::kScratch, 64},
      {"miss scratch", fw::MissService::kScratch, 32},
      {"reflective scratch", fw::ReflectiveEngine::kScratch, 32},
      {"firmware queues 8-15", kFwQueueBase, 8 * kFwQueueStride},
      {"sP-copy queues 3-4", kSpCopyQueueBase, 2 * kFwQueueStride},
      {"sP-copy scratch", kSpCopyScratch, 64},
      {"sP-copy staging", kSpCopyStaging, 64},
      {"diff copy", kDiffCopyBase, 0x1000},
      {"DMA scratch", fw::DmaEngine::scratch_offset(kDmaStagingBase), 64},
      {"DMA staging", kDmaStagingBase, 0x2000},
      {"approach 4/5 staging", kA45StagingBase, 0x1000},
  };

  /// Where `map`'s translation table sits.
  [[nodiscard]] static SsramRegion translation_table_region(
      const msg::AddressMap& map);
  /// Every region of a node laid out by `map`: kSsramRegions and the
  /// translation table.
  [[nodiscard]] static std::vector<SsramRegion> ssram_regions(
      const msg::AddressMap& map);

  /// `map`'s translation table as sSRAM bytes. Every node holds the same
  /// table, so a machine encodes it once and hands it to each setup().
  [[nodiscard]] static std::vector<std::byte> encode_translation_table(
      const msg::AddressMap& map);

  /// Throws std::invalid_argument naming both regions if two of `regions`
  /// overlap, or naming one that ends past `bank_bytes`.
  static void check_ssram_layout(std::span<const SsramRegion> regions,
                                 std::uint32_t bank_bytes);

  Node(sim::Kernel& kernel, const std::string& name, sim::NodeId id,
       net::Network& network, Params params);

  /// Configure queues, the translation table, firmware bindings ("OS
  /// boot"). `xlat_table` is encode_translation_table(map). Throws
  /// std::invalid_argument if the sSRAM regions overlap. Call once before
  /// start().
  void setup(const msg::AddressMap& map,
             std::span<const std::byte> xlat_table);

  /// Spawn NIU and firmware processes.
  void start();

  [[nodiscard]] sim::NodeId id() const { return id_; }
  [[nodiscard]] mem::MemBus& bus() { return *bus_; }
  [[nodiscard]] mem::DramCtrl& dram() { return *dram_; }
  [[nodiscard]] mem::SnoopingCache& cache() { return *cache_; }
  [[nodiscard]] cpu::Processor& ap() { return *ap_; }
  [[nodiscard]] cpu::Processor& sp() { return *sp_; }
  [[nodiscard]] niu::Niu& niu() { return *niu_; }
  [[nodiscard]] fw::DmaEngine* dma() { return dma_.get(); }
  [[nodiscard]] fw::NumaEngine* numa() { return numa_.get(); }
  [[nodiscard]] fw::ScomaEngine* scoma() { return scoma_.get(); }
  [[nodiscard]] fw::MissService* miss_service() { return miss_.get(); }
  [[nodiscard]] fw::ChunkOpener* chunk_opener() { return chunk_.get(); }
  [[nodiscard]] const Params& params() const { return params_; }

  /// Library configuration for a user endpoint on this node.
  [[nodiscard]] msg::Endpoint::Config endpoint_config();
  [[nodiscard]] msg::Endpoint make_endpoint() {
    return msg::Endpoint(*ap_, endpoint_config());
  }

  /// A second, fully independent endpoint over the user1 queue pair (no
  /// express/raw queues): the multitasking story — two jobs sharing one
  /// NIU through protected queues.
  [[nodiscard]] msg::Endpoint::Config endpoint1_config();
  [[nodiscard]] msg::Endpoint make_endpoint1() {
    return msg::Endpoint(*ap_, endpoint1_config());
  }

 private:
  void setup_tx_queues();
  void setup_rx_queues();
  void write_translation_table(const msg::AddressMap& map,
                               std::span<const std::byte> table);

  sim::NodeId id_;
  Params params_;
  std::unique_ptr<mem::MemBus> bus_;
  std::unique_ptr<mem::DramCtrl> dram_;
  std::unique_ptr<mem::SnoopingCache> cache_;
  std::unique_ptr<cpu::Processor> ap_;
  std::unique_ptr<cpu::Processor> sp_;
  std::unique_ptr<niu::Niu> niu_;
  std::unique_ptr<fw::DmaEngine> dma_;
  std::unique_ptr<fw::NumaEngine> numa_;
  std::unique_ptr<fw::ScomaEngine> scoma_;
  std::unique_ptr<fw::MissService> miss_;
  std::unique_ptr<fw::ChunkOpener> chunk_;
  bool setup_done_ = false;
};

}  // namespace sv::sys
