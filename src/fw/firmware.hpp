// Firmware framework for the sP.
//
// Firmware is a set of event-driven services (DMA, NUMA, S-COMA, miss
// service, ...) that share the single sP: a service acquires the processor
// for the duration of each handler, so firmware occupancy — the effect the
// paper's evaluation highlights — emerges naturally from contention.
//
// Standard queue plan (configured by sys::Node):
//   hw rx queue 8   DMA requests            logical kDmaReqL
//   hw rx queue 9   NUMA home requests      logical kNumaReqL
//   hw rx queue 10  NUMA client replies     logical kNumaRspL
//   hw rx queue 11  S-COMA home requests    logical kScomaReqL
//   hw rx queue 12  S-COMA demands/acks     logical kScomaRspL
//   hw rx queue 13  chunk arrivals          logical niu::kChunkArrivalQueue
//   hw rx queue 14  firmware completions    logical kFwDoneL
//   hw rx queue 15  miss/overflow queue     (no logical binding)
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

/// Base class for firmware services: message receive, message send, and
/// aP-DRAM access helpers, all with explicit sP cycle costs.
class FwService : public sim::SimObject {
 public:
  // sP cycles charged per event.
  static constexpr sim::Cycles kDispatchCycles = 20;  // wake + decode
  static constexpr sim::Cycles kHandlerCycles = 30;   // base handling work

  FwService(sim::Kernel& kernel, std::string name, cpu::Processor& sp,
            niu::SBiu& sbiu, unsigned hwq, std::uint32_t scratch);

  virtual ~FwService() = default;

  /// Spawn the service's loops.
  virtual void start() = 0;

  /// Snapshot state. The base writes the event counter; engines with
  /// protocol state (directories, queue images, in-flight tags) override
  /// and chain back to this.
  virtual void ckpt_save(ckpt::Writer& w) const;

 protected:
  /// Wait (without occupying the sP) until this service's queue is
  /// non-empty.
  sim::Co<void> wait_msg();
  [[nodiscard]] bool has_msg() const;

  /// Read and consume the head message (charges sbiu costs). The caller
  /// must hold the sP.
  sim::Co<RxMsg> read_msg();

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
  unsigned hwq_;
  std::uint32_t scratch_;  // private sSRAM scratch area offset
  sim::Counter events_;

 private:
  trace::TrackId trace_track_ = trace::kNoTrack;
};

}  // namespace sv::fw
