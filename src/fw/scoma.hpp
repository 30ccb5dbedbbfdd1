// S-COMA shared-memory firmware (paper section 5).
//
// The S-COMA region is a global address range backed, on every node, by
// local DRAM used as an L3 cache; clsSRAM keeps 4 state bits per line that
// the aBIU checks on every aP bus operation. Firmware runs a home-based
// MSI invalidate protocol at cache-line granularity:
//
//   client miss  -> ReadReq/WriteReq to the line's (page-interleaved) home
//   home         -> recalls the RW owner / invalidates sharers as needed,
//                   then grants by a remote kWriteApDram carrying the line
//                   data *and* the new cls state — the grant is executed
//                   entirely by the requester's NIU hardware ("data
//                   supplied by a remote node ... can be received via the
//                   remote command queue to avoid firmware execution on the
//                   return", paper section 5).
//
// Deadlock discipline: requests (ReadReq/WriteReq) and demands/replies
// (Inval/Recall/Ack) travel on distinct logical queues serviced by distinct
// loops; the demand loop never waits on remote state, so the home can
// always collect its acks.
//
// cls encodings are ABiu::ClsState. Directory state lives in firmware
// (sP program state), charged via handler costs.
#pragma once

#include <set>
#include <unordered_map>

#include "fw/firmware.hpp"
#include "niu/regs.hpp"

namespace sv::fw {

struct ScomaMsg {
  enum Kind : std::uint8_t {
    kReadReq = 0,
    kWriteReq = 1,
    kInval = 2,
    kRecallShare = 3,
    kRecallInval = 4,
    kAck = 5,
    kAckData = 6,
  };
  std::uint8_t kind = kReadReq;
  std::uint8_t _pad = 0;
  std::uint16_t node = 0;  // requester / acker
  std::uint32_t _pad2 = 0;
  std::uint64_t addr = 0;  // line address
  // kAckData: line data follows on the wire.
};

class ScomaEngine final : public FwService {
 public:
  static constexpr std::uint32_t kScratch = 0x0F40;  // sSRAM, 64 bytes

  struct Params {
    FwQueueMap queues;
    std::size_t num_nodes = 2;
    mem::Addr base = niu::kScomaBase;
    mem::Addr size = niu::kScomaDefaultSize;
    std::uint32_t page_bytes = 4096;  // home interleave granularity
  };

  ScomaEngine(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
              niu::SBiu& sbiu, Params params, Costs costs = {});

  void start() override;

  /// One-time cls initialization: home-owned lines start ReadWrite at the
  /// home, everything else Invalid. Call before the simulation begins.
  void init_cls();

  /// Install the paper's aBIU extension: the aBIU composes and sends miss
  /// requests to the home directly, bypassing this engine's client loop
  /// (which stays running but sees no traffic). Home/demand handling is
  /// unchanged.
  void enable_hw_miss_send();

  [[nodiscard]] sim::NodeId home_of(mem::Addr a) const;

  struct Stats {
    sim::Counter read_misses;
    sim::Counter write_misses;
    sim::Counter recalls;
    sim::Counter invalidations;
    sim::Counter grants;
  };
  [[nodiscard]] const Stats& stats() const { return sstats_; }

  /// Snapshot state: base event counter, the five protocol counters, and
  /// a digest of the directory (owner + sharer sets, in line order).
  void ckpt_save(ckpt::Writer& w) const override;

 private:
  static constexpr std::uint16_t kNoOwner = 0xFFFF;
  struct Dir {
    std::uint16_t owner = kNoOwner;
    std::set<std::uint16_t> sharers;
  };

  sim::Co<void> client_loop();  // aBIU-forwarded misses -> requests
  sim::Co<void> demand_loop();  // Inval/Recall demands + routing acks
  sim::Co<void> home_loop();    // serves requests serially

  sim::Co<void> serve_request(const ScomaMsg& req);
  /// Demote/evict the current owner so the home DRAM copy is valid again.
  sim::Co<void> recall_owner(Dir& dir, mem::Addr line, bool to_shared);
  sim::Co<void> invalidate_sharers(Dir& dir, mem::Addr line,
                                   std::uint16_t except);
  sim::Co<void> grant(mem::Addr line, std::uint16_t to, std::uint8_t cls);
  sim::Co<void> set_local_cls(mem::Addr line, std::uint8_t cls);
  sim::Co<void> flush_local(mem::Addr line);

  Dir& dir_of(mem::Addr line);

  Params params_;
  std::unordered_map<mem::Addr, Dir> dirs_;

  struct AckInfo {
    std::uint8_t kind;
    std::uint16_t node;
    mem::Addr addr;
    std::vector<std::byte> data;
  };
  sim::Channel<AckInfo> acks_;
  Stats sstats_;
};

/// Approach-4 helper: a service that opens clsSRAM lines as block-transfer
/// chunks arrive (consumes the kChunkArrivalQueue notifications emitted by
/// remote writes carrying chunk_notify).
class ChunkOpener final : public FwService {
 public:
  static constexpr std::uint32_t kScratch = 0x0F80;  // sSRAM, 64 bytes

  ChunkOpener(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
              niu::SBiu& sbiu, FwQueueMap queues, std::uint8_t open_bits,
              Costs costs = {});

  void start() override;

  [[nodiscard]] const sim::Counter& chunks_opened() const { return events_; }

 private:
  sim::Co<void> loop();
  std::uint8_t open_bits_;
};

}  // namespace sv::fw
