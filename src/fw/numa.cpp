#include "fw/numa.hpp"
#include "ckpt/io.hpp"

namespace sv::fw {

NumaEngine::NumaEngine(sim::Kernel& kernel, std::string name,
                       cpu::Processor& sp, niu::SBiu& sbiu, Params params)
    : FwService(kernel, std::move(name), sp, sbiu, kScratch),
      params_(params) {}

void NumaEngine::start() {
  sim::spawn(client_loop());
  sim::spawn(home_loop());
  sim::spawn(reply_loop());
}

sim::NodeId NumaEngine::home_of(mem::Addr a) const {
  return static_cast<sim::NodeId>(((a - niu::kNumaBase) / kPageBytes) %
                                  params_.num_nodes);
}

sim::Co<void> NumaEngine::client_loop() {
  auto& ops = sbiu_.numa_ops();
  for (;;) {
    co_await handle_op(co_await ops.pop());
  }
}

sim::Co<void> NumaEngine::handle_op(niu::FwdOp op) {
  const sim::Tick h0 = now();
  co_await sp_.acquire();
  co_await sp_.work(kDispatchCycles + kHandlerCycles);
  const sim::NodeId home = home_of(op.addr);
  const mem::Addr backing = backing_of(op.addr);

  if (niu::classify(op.op) == niu::OpClass::kLoad) {
    if (home == node()) {
      // Local home: fetch the line and complete the retried load directly.
      std::byte line[mem::kLineBytes];
      co_await read_ap(backing, line);
      niu::Command supply;
      supply.op = niu::CmdOp::kSupplyLoad;
      supply.tag = op.token;
      supply.data.assign(line, line + mem::kLineBytes);
      co_await sbiu_.immediate(std::move(supply));
    } else {
      remote_loads_.inc();
      NumaMsg msg;
      msg.kind = NumaMsg::kReadReq;
      msg.requester = static_cast<std::uint16_t>(node());
      msg.token = op.token;
      msg.addr = op.addr;
      co_await send(home, kNumaReqL, to_bytes(msg));
    }
  } else {
    if (home == node()) {
      co_await write_ap(backing, op.wdata);
    } else {
      remote_stores_.inc();
      NumaMsg msg;
      msg.kind = NumaMsg::kWrite;
      msg.requester = static_cast<std::uint16_t>(node());
      msg.addr = op.addr;
      co_await send(home, kNumaReqL, to_bytes(msg, op.wdata));
    }
  }
  sp_.release();
  trace_handler("numa.client", h0);
}

sim::Co<void> NumaEngine::home_loop() {
  for (;;) {
    co_await wait_msg(kNumaReqQ);
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles + kHandlerCycles);
    RxMsg rx = co_await read_msg(kNumaReqQ);
    const auto msg = rx.as<NumaMsg>();
    const mem::Addr backing = backing_of(msg.addr);

    if (msg.kind == NumaMsg::kReadReq) {
      std::byte line[mem::kLineBytes];
      co_await read_ap(backing, line);
      NumaMsg rsp;
      rsp.kind = NumaMsg::kReadRsp;
      rsp.token = msg.token;
      rsp.addr = msg.addr;
      co_await send(msg.requester, kNumaRspL, to_bytes(rsp, line),
                    net::kPriorityHigh);
    } else if (msg.kind == NumaMsg::kWrite) {
      const std::span<const std::byte> data(
          rx.data.data() + sizeof(NumaMsg), rx.data.size() - sizeof(NumaMsg));
      co_await write_ap(backing, data);
    }
    sp_.release();
    trace_handler("numa.home", h0);
  }
}

sim::Co<void> NumaEngine::reply_loop() {
  for (;;) {
    co_await wait_msg(kNumaRspQ);
    const sim::Tick h0 = now();
    co_await sp_.acquire();
    co_await sp_.work(kDispatchCycles);
    std::byte buf[niu::kBasicHeaderBytes + sizeof(NumaMsg) +
                  mem::kLineBytes];
    co_await read_head(kNumaRspQ, buf);

    NumaMsg msg{};
    std::memcpy(&msg, buf + niu::kBasicHeaderBytes, sizeof(NumaMsg));
    niu::Command supply;
    supply.op = niu::CmdOp::kSupplyLoad;
    supply.tag = msg.token;
    supply.data.assign(
        buf + niu::kBasicHeaderBytes + sizeof(NumaMsg),
        buf + niu::kBasicHeaderBytes + sizeof(NumaMsg) + mem::kLineBytes);
    co_await sbiu_.immediate(std::move(supply));
    sp_.release();
    trace_handler("numa.reply", h0);
  }
}

void NumaEngine::ckpt_save(ckpt::Writer& w) const {
  FwService::ckpt_save(w);
  w.u64(remote_loads_.value());
  w.u64(remote_stores_.value());
}

}  // namespace sv::fw
