#include "ckpt/capture.hpp"

#include <cstdio>

#include "app/runtime.hpp"
#include "ckpt/io.hpp"
#include "sys/workload.hpp"

namespace sv::ckpt {

namespace {

/// "n3.cache" etc. — chunk names are part of the on-disk format, keep
/// them short and stable.
std::string node_chunk(sim::NodeId i, const char* what) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "n%u.%s", static_cast<unsigned>(i), what);
  return buf;
}

template <typename T>
void add(Snapshot& snap, std::string name, const T& component) {
  Writer w;
  component.ckpt_save(w);
  snap.add_chunk(std::move(name), w);
}

}  // namespace

Snapshot capture(sys::Machine& machine, std::string config,
                 const sys::Run* run) {
  Snapshot snap;
  snap.config = std::move(config);
  snap.tick = machine.now();

  // Event domains. Sequential machines have one ("k0"); partitioned
  // machines one per node — same boundary, same per-domain queues, so the
  // chunk set is identical for threads {1, 2, 4}.
  const std::size_t ndomains =
      machine.partitioned() ? machine.size() : std::size_t{1};
  for (std::size_t d = 0; d < ndomains; ++d) {
    add(snap, node_chunk(static_cast<sim::NodeId>(d), "kernel"),
        machine.domain(static_cast<sim::NodeId>(d)));
  }

  if (const fault::Injector* inj = machine.fault_injector()) {
    add(snap, "fault", *inj);
  }
  add(snap, "net", machine.network());

  for (sim::NodeId i = 0; i < static_cast<sim::NodeId>(machine.size());
       ++i) {
    sys::Node& node = machine.node(i);
    add(snap, node_chunk(i, "bus"), node.bus());
    add(snap, node_chunk(i, "dram"), node.dram());
    add(snap, node_chunk(i, "cache"), node.cache());
    add(snap, node_chunk(i, "ap"), node.ap());
    add(snap, node_chunk(i, "sp"), node.sp());
    add(snap, node_chunk(i, "ctrl"), node.niu().ctrl());
    add(snap, node_chunk(i, "asram"), node.niu().asram());
    add(snap, node_chunk(i, "ssram"), node.niu().ssram());
    add(snap, node_chunk(i, "cls"), node.niu().cls());
    add(snap, node_chunk(i, "fw.dma"), *node.dma());
    add(snap, node_chunk(i, "fw.numa"), *node.numa());
    if (const fw::ScomaEngine* e = node.scoma()) {
      add(snap, node_chunk(i, "fw.scoma"), *e);
    }
    add(snap, node_chunk(i, "fw.miss"), *node.miss_service());
    add(snap, node_chunk(i, "fw.chunk"), *node.chunk_opener());
  }

  if (run != nullptr) {
    if (run->world) {
      add(snap, "app", *run->world);
    }
    // The `reliable` workload's channels live outside any World: channel
    // i is node i's.
    for (std::size_t i = 0; i < run->channels.size(); ++i) {
      add(snap, node_chunk(static_cast<sim::NodeId>(i), "reliable"),
          *run->channels[i]);
    }
  }
  return snap;
}

sim::Tick run_to_tick(sys::Machine& machine, sim::Tick target,
                      sim::Tick deadline) {
  machine.run_epochs_until([&] { return machine.now() >= target; }, deadline);
  return machine.now();
}

}  // namespace sv::ckpt
