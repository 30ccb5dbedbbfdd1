#include "sys/stats_dump.hpp"

#include <string>

namespace sv::sys {

sim::StatRegistry collect_stats(Machine& machine) {
  sim::StatRegistry reg;
  const double now = static_cast<double>(machine.now());

  reg.set("sim.now_us", now / 1e6);
  // Scheduled (= sequence numbers issued), not executed: fast paths bypass
  // events but reserve their keys, so this count is byte-identical across
  // fast and slow runs where the executed count is not.
  reg.set("sim.events", static_cast<double>(machine.events_scheduled()));
  reg.set("net.packets_delivered",
          static_cast<double>(machine.network().packets_delivered()));
  reg.set("net.mean_transit_us",
          machine.network().transit_ps().mean() / 1e6);
  const auto audit = machine.network().audit();
  reg.set("net.packets_injected", static_cast<double>(audit.injected));
  reg.set("net.packets_dropped", static_cast<double>(audit.dropped));

  if (auto* inj = machine.fault_injector()) {
    const auto& fs = inj->stats();
    reg.set("fault.drops", static_cast<double>(fs.drops.value()));
    reg.set("fault.corrupts", static_cast<double>(fs.corrupts.value()));
    reg.set("fault.link_downs", static_cast<double>(fs.link_downs.value()));
    reg.set("fault.router_stalls",
            static_cast<double>(fs.router_stalls.value()));
    reg.set("fault.starvations",
            static_cast<double>(fs.starvations.value()));
    reg.set("fault.rx_overflows",
            static_cast<double>(fs.rx_overflows.value()));
  }

  for (sim::NodeId i = 0; i < machine.size(); ++i) {
    Node& node = machine.node(i);
    const std::string p = 'n' + std::to_string(i) + '.';

    const auto& bus = node.bus().stats();
    reg.set(p + "bus.transactions",
            static_cast<double>(bus.transactions.value()));
    reg.set(p + "bus.retries", static_cast<double>(bus.retries.value()));
    reg.set(p + "bus.interventions",
            static_cast<double>(bus.interventions.value()));
    reg.set(p + "bus.data_occupancy",
            bus.data_busy.occupancy(machine.now()));

    const auto& cache = node.cache().stats();
    reg.set(p + "cache.read_hits",
            static_cast<double>(cache.read_hits.value()));
    reg.set(p + "cache.read_misses",
            static_cast<double>(cache.read_misses.value()));
    reg.set(p + "cache.write_hits",
            static_cast<double>(cache.write_hits.value()));
    reg.set(p + "cache.write_misses",
            static_cast<double>(cache.write_misses.value()));
    reg.set(p + "cache.writebacks",
            static_cast<double>(cache.writebacks.value()));
    reg.set(p + "cache.snoop_invalidates",
            static_cast<double>(cache.snoop_invalidates.value()));

    const auto& ctrl = node.niu().ctrl().stats();
    reg.set(p + "ctrl.msgs_launched",
            static_cast<double>(ctrl.msgs_launched.value()));
    reg.set(p + "ctrl.msgs_received",
            static_cast<double>(ctrl.msgs_received.value()));
    reg.set(p + "ctrl.express_pushed",
            static_cast<double>(ctrl.express_pushed.value()));
    reg.set(p + "ctrl.rx_hits", static_cast<double>(ctrl.rx_hits.value()));
    reg.set(p + "ctrl.rx_misses",
            static_cast<double>(ctrl.rx_misses.value()));
    reg.set(p + "ctrl.rx_dropped",
            static_cast<double>(ctrl.rx_dropped.value()));
    reg.set(p + "ctrl.cmds_local",
            static_cast<double>(ctrl.cmds_local.value()));
    reg.set(p + "ctrl.cmds_remote",
            static_cast<double>(ctrl.cmds_remote.value()));
    reg.set(p + "ctrl.cmds_immediate",
            static_cast<double>(ctrl.cmds_immediate.value()));
    reg.set(p + "ctrl.protection_violations",
            static_cast<double>(ctrl.protection_violations.value()));
    reg.set(p + "ctrl.block_ops",
            static_cast<double>(ctrl.block_reads.value() +
                                ctrl.block_txs.value() +
                                ctrl.block_xfers.value()));
    reg.set(p + "ctrl.ibus_occupancy",
            ctrl.ibus_busy.occupancy(machine.now()));

    const auto& abiu = node.niu().abiu().stats();
    reg.set(p + "abiu.express_stores",
            static_cast<double>(abiu.express_stores.value()));
    reg.set(p + "abiu.pointer_updates",
            static_cast<double>(abiu.pointer_updates.value()));
    reg.set(p + "abiu.numa_forwards",
            static_cast<double>(abiu.numa_forwards.value()));
    reg.set(p + "abiu.scoma_checks",
            static_cast<double>(abiu.scoma_checks.value()));
    reg.set(p + "abiu.scoma_retries",
            static_cast<double>(abiu.scoma_retries.value()));
    reg.set(p + "abiu.master_reads",
            static_cast<double>(abiu.master_reads.value()));
    reg.set(p + "abiu.master_writes",
            static_cast<double>(abiu.master_writes.value()));

    reg.set(p + "aP.busy_us", static_cast<double>(node.ap().busy()) / 1e6);
    reg.set(p + "aP.occupancy",
            now > 0 ? static_cast<double>(node.ap().busy()) / now : 0.0);
    reg.set(p + "sP.busy_us", static_cast<double>(node.sp().busy()) / 1e6);
    reg.set(p + "sP.occupancy",
            now > 0 ? static_cast<double>(node.sp().busy()) / now : 0.0);

    if (auto* scoma = node.scoma()) {
      reg.set(p + "scoma.read_misses",
              static_cast<double>(scoma->stats().read_misses.value()));
      reg.set(p + "scoma.write_misses",
              static_cast<double>(scoma->stats().write_misses.value()));
      reg.set(p + "scoma.recalls",
              static_cast<double>(scoma->stats().recalls.value()));
      reg.set(p + "scoma.invalidations",
              static_cast<double>(scoma->stats().invalidations.value()));
      reg.set(p + "scoma.grants",
              static_cast<double>(scoma->stats().grants.value()));
    }
    reg.set(p + "numa.remote_loads",
            static_cast<double>(node.numa().remote_loads().value()));
    reg.set(p + "numa.remote_stores",
            static_cast<double>(node.numa().remote_stores().value()));
    reg.set(p + "miss_service.serviced",
            static_cast<double>(node.miss_service().serviced().value()));
  }
  return reg;
}

void dump_stats(Machine& machine, std::ostream& os) {
  collect_stats(machine).dump(os);
}

void dump_stats_json(Machine& machine, std::ostream& os) {
  collect_stats(machine).dump_json(os);
}

}  // namespace sv::sys
