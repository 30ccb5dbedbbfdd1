#include "fw/reflective.hpp"

namespace sv::fw {

ReflectiveEngine::ReflectiveEngine(sim::Kernel& kernel, std::string name,
                                   cpu::Processor& sp, niu::SBiu& sbiu,
                                   Params params)
    : FwService(kernel, std::move(name), sp, sbiu, kFwDoneQ /*unused queue*/,
                kScratch),
      params_(std::move(params)) {
  sbiu_.abiu().add_reflect_range(params_.local_base, params_.size,
                                 /*hw_mode=*/false, params_.peers);
}

void ReflectiveEngine::start() { sim::spawn(loop()); }

sim::Co<void> ReflectiveEngine::loop() {
  auto& ops = sbiu_.abiu().reflect_ops();
  for (;;) {
    niu::FwdOp op = co_await ops.pop();
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles + kHandlerCycles);
    for (const auto& peer : params_.peers) {
      niu::Command wr;
      wr.op = niu::CmdOp::kWriteApDram;
      wr.addr = peer.remote_base + (op.addr - params_.local_base);
      wr.src_node = static_cast<std::uint16_t>(node());
      wr.data = op.wdata;

      net::Packet pkt;
      pkt.src = node();
      pkt.dest = peer.node;
      pkt.dest_queue = net::kRemoteCmdQueue;
      pkt.priority = net::kPriorityLow;
      pkt.payload = niu::encode_remote(wr);
      co_await sbiu_.ctrl().inject(std::move(pkt));
    }
    events_.inc();
    sp_.release();
    trace_handler("reflect", h0);
  }
}

}  // namespace sv::fw
