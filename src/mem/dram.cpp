#include "mem/dram.hpp"

#include "ckpt/stats_io.hpp"

namespace sv::mem {

DramCtrl::DramCtrl(sim::Kernel& kernel, std::string name, Params params)
    : sim::SimObject(kernel, std::move(name)), params_(std::move(params)) {}

bool DramCtrl::claims(Addr a) const {
  for (const Range& r : params_.ranges) {
    if (r.contains(a)) {
      return true;
    }
  }
  return false;
}

SnoopResult DramCtrl::bus_snoop(const BusRequest& req) {
  if (!claims(req.addr)) {
    return {};
  }
  const sim::Cycles lat =
      op_writes_data(req.op) ? kWriteLatency : kReadLatency;
  return SnoopResult{SnoopAction::kAccept, lat};
}

void DramCtrl::bus_read_data(const BusRequest& req,
                             std::span<std::byte> out) {
  reads_.inc();
  store_.read(req.addr, out);
}

void DramCtrl::bus_write_data(const BusRequest& req,
                              std::span<const std::byte> in) {
  writes_.inc();
  store_.write(req.addr, in);
}

void DramCtrl::ckpt_save(ckpt::Writer& w) const {
  ckpt::save(w, reads_);
  ckpt::save(w, writes_);
  store_.ckpt_save(w);
}

}  // namespace sv::mem
