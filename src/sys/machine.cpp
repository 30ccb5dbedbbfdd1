#include "sys/machine.hpp"

#include <stdexcept>

namespace sv::sys {

Machine::Machine(Params params) : params_(params) {
  const bool partitioned = params_.threads > 0;
  if (partitioned && params_.net == NetKind::kFatTree) {
    throw std::invalid_argument(
        "Machine: threads > 0 requires NetKind::kIdeal (the fat tree's "
        "shared routers have no home domain)");
  }
  if (partitioned && params_.fault.scripted) {
    throw std::invalid_argument(
        "Machine: threads > 0 cannot run a scripted fault plan "
        "(fault.drop_script counts drop opportunities in one domain's "
        "arrival order)");
  }
  const std::size_t ndomains = partitioned ? params_.nodes : 1;
  domains_.reserve(ndomains);
  for (std::size_t i = 0; i < ndomains; ++i) {
    domains_.push_back(std::make_unique<sim::Kernel>());
  }

  if (params_.fault.enabled()) {
    // One injector shared by every domain: decision streams are per lane,
    // and a lane is only exercised from the domain owning it. Pre-allocate
    // a lane per node so partitioned execution never grows the table.
    fault_ = std::make_unique<fault::Injector>("fault", params_.fault,
                                               params_.nodes);
    for (auto& d : domains_) {
      d->set_fault_injector(fault_.get());
    }
  }

  if (params_.net == NetKind::kFatTree) {
    net::FatTreeNetwork::Params np;
    np.nodes = params_.nodes;
    np.radix = params_.radix;
    network_ =
        std::make_unique<net::FatTreeNetwork>(*domains_.front(), "net", np);
  } else {
    net::IdealNetwork::Params np;
    np.nodes = params_.nodes;
    np.latency = params_.ideal_latency;
    std::vector<sim::Kernel*> raw;
    raw.reserve(params_.nodes);
    for (sim::NodeId i = 0; i < params_.nodes; ++i) {
      raw.push_back(&domain(i));
    }
    const sim::DomainMap map =
        partitioned ? sim::DomainMap(std::move(raw))
                    : sim::DomainMap(*domains_.front(), params_.nodes);
    network_ = std::make_unique<net::IdealNetwork>(map, "net", np);
  }

  nodes_.reserve(params_.nodes);
  for (sim::NodeId i = 0; i < params_.nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(domain(i),
                                            'n' + std::to_string(i), i,
                                            *network_, params_.node));
  }
  const msg::AddressMap map = addr_map();
  const mem::BackingStore xlat = Node::encode_translation_table(map);
  for (auto& n : nodes_) {
    n->setup(map, xlat);
    n->start();
  }

  if (partitioned) {
    std::vector<sim::Kernel*> raw;
    raw.reserve(domains_.size());
    for (auto& d : domains_) {
      raw.push_back(d.get());
    }
    sched_ = std::make_unique<sim::ParallelKernel>(std::move(raw),
                                                   params_.threads,
                                                   lookahead());
  }
}

std::uint64_t Machine::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& d : domains_) {
    n += d->events_executed();
  }
  return n;
}

std::uint64_t Machine::events_scheduled() const {
  std::uint64_t n = 0;
  for (const auto& d : domains_) {
    n += d->events_scheduled();
  }
  return n;
}

sim::Tick Machine::lookahead() const {
  return params_.net == NetKind::kIdeal ? params_.ideal_latency
                                        : sim::kMicrosecond;
}

bool Machine::run_epochs_until(const std::function<bool()>& pred,
                               sim::Tick deadline) {
  if (sched_) {
    return sched_->run_epochs_until(pred, deadline);
  }
  // Sequential twin of ParallelKernel::run_epochs_until: identical epoch
  // boundaries, identical stopping rule, so predicates observe the two
  // layouts at exactly the same instants.
  const sim::Tick lk = lookahead();
  if (pred()) {
    return true;
  }
  while (epoch_start_ <= deadline) {
    kernel().run_until(epoch_start_ + lk - 1);
    epoch_start_ += lk;
    if (pred()) {
      return true;
    }
    if (kernel().idle()) {
      return false;
    }
  }
  return false;
}

trace::Tracer& Machine::enable_tracing(std::size_t capacity) {
  if (tracers_.empty()) {
    tracers_.reserve(domains_.size());
    for (auto& d : domains_) {
      tracers_.push_back(std::make_unique<trace::Tracer>(capacity));
      d->set_tracer(tracers_.back().get());
    }
  }
  return *tracers_.front();
}

std::vector<trace::Tracer*> Machine::tracers() {
  std::vector<trace::Tracer*> out;
  out.reserve(tracers_.size());
  for (const auto& t : tracers_) {
    out.push_back(t.get());
  }
  return out;
}

}  // namespace sv::sys
