// Firmware framework for the sP.
//
// Firmware is a set of event-driven services (DMA, NUMA, S-COMA, miss
// service, ...) that share the single sP: a service acquires the processor
// for the duration of each handler, so firmware occupancy — the effect the
// paper's evaluation highlights — emerges naturally from contention.
//
// Standard queue plan (configured by sys::Node). A service is bound to no
// queue: each of its loops names the hardware rx queue it serves.
//   hw rx queue  contents              logical queue            served by
//   8            DMA requests          kDmaReqL                 DmaEngine
//   9            NUMA home requests    kNumaReqL                NumaEngine
//   10           NUMA client replies   kNumaRspL                NumaEngine
//   11           S-COMA home requests  kScomaReqL               ScomaEngine
//   12           S-COMA demands/acks   kScomaRspL               ScomaEngine
//   13           chunk arrivals        niu::kChunkArrivalQueue  ChunkOpener
//   14           firmware completions  kFwDoneL                 DmaEngine
//   15           miss/overflow queue   (no logical binding)     MissService
#pragma once

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "cpu/processor.hpp"
#include "niu/sbiu.hpp"
#include "sim/coro.hpp"
#include "trace/trace.hpp"

namespace sv::ckpt {
class Writer;
}  // namespace sv::ckpt

namespace sv::fw {

inline constexpr net::QueueId kDmaReqL = 0x0F00;
inline constexpr net::QueueId kNumaReqL = 0x0F01;
inline constexpr net::QueueId kNumaRspL = 0x0F02;
inline constexpr net::QueueId kScomaReqL = 0x0F03;
inline constexpr net::QueueId kScomaRspL = 0x0F04;
inline constexpr net::QueueId kFwDoneL = 0x0F05;

// The hardware rx queues of the standard queue plan above.
inline constexpr unsigned kDmaReqQ = 8;
inline constexpr unsigned kNumaReqQ = 9;
inline constexpr unsigned kNumaRspQ = 10;
inline constexpr unsigned kScomaReqQ = 11;
inline constexpr unsigned kScomaRspQ = 12;
inline constexpr unsigned kChunkArrivalQ = 13;
inline constexpr unsigned kFwDoneQ = 14;

struct RxMsg {
  niu::RxDescriptor desc;
  std::vector<std::byte> data;

  template <typename T>
  [[nodiscard]] T as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    std::memcpy(&v, data.data(), std::min(sizeof(T), data.size()));
    return v;
  }
};

template <typename T>
[[nodiscard]] std::vector<std::byte> to_bytes(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &v, sizeof(T));
  return out;
}

/// A protocol header with `data` following it on the wire.
template <typename T>
[[nodiscard]] std::vector<std::byte> to_bytes(
    const T& header, std::span<const std::byte> data) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T) + data.size());
  std::memcpy(out.data(), &header, sizeof(T));
  std::copy(data.begin(), data.end(), out.begin() + sizeof(T));
  return out;
}

/// Base class for firmware services: message receive from the hardware rx
/// queues a service serves, message send, and aP-DRAM access helpers, all
/// with explicit sP cycle costs.
class FwService : public sim::SimObject {
 public:
  // sP cycles charged per event.
  static constexpr sim::Cycles kDispatchCycles = 20;  // wake + decode
  static constexpr sim::Cycles kHandlerCycles = 30;   // base handling work

  FwService(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
            niu::SBiu& sbiu, std::uint32_t scratch);

  virtual ~FwService() = default;

  /// Spawn the service's loops.
  virtual void start() = 0;

  /// Snapshot state. The base writes the event counter; engines with
  /// protocol state (directories, queue images, in-flight tags) override
  /// and chain back to this.
  virtual void ckpt_save(ckpt::Writer& w) const;

 protected:
  /// Wait (without occupying the sP) until hardware rx queue `hwq` is
  /// non-empty.
  sim::Co<void> wait_msg(unsigned hwq);

  /// Read and consume the head message of `hwq`: its header, then its data
  /// (charges sBIU costs), counted in events_. The caller must hold the sP.
  sim::Co<RxMsg> read_msg(unsigned hwq);

  /// Read the first buf.size() bytes of `hwq`'s head slot (header and data)
  /// in one sSRAM read, then consume it. Not counted in events_. The caller
  /// must hold the sP.
  sim::Co<void> read_head(unsigned hwq, std::span<std::byte> buf);

  /// Send a protocol message to `dest`'s logical queue `q`.
  sim::Co<void> send(sim::NodeId dest, net::QueueId q,
                     std::span<const std::byte> data,
                     std::uint8_t priority = net::kPriorityLow);

  /// Coherent aP-DRAM access through CTRL (immediate commands).
  sim::Co<void> read_ap(mem::Addr addr, std::span<std::byte> out);
  sim::Co<void> write_ap(mem::Addr addr, std::span<const std::byte> in);

  [[nodiscard]] sim::NodeId node() const { return sbiu_.ctrl().node(); }

  /// Record a trace span `what` covering [start, now] on this service's
  /// lane (SimObject name, e.g. "n0.fw.dma"). No-op unless tracing.
  void trace_handler(const char* what, sim::Tick start);

  cpu::Processor& sp_;
  niu::SBiu& sbiu_;
  std::uint32_t scratch_;  // private sSRAM scratch area offset
  sim::Counter events_;

 private:
  trace::TrackId trace_track_ = trace::kNoTrack;
};

}  // namespace sv::fw
