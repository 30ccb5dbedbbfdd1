#include "net/fat_tree.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace sv::net {

FatTreeNetwork::FatTreeNetwork(sim::Kernel& kernel, std::string name,
                               Params params)
    : Network(kernel, std::move(name), params.nodes),
      params_(params),
      topo_(FatTreeTopology::make(params.nodes, params.radix)) {
  const unsigned k = params_.radix;

  endpoints_.resize(params_.nodes);
  inject_links_.resize(params_.nodes, nullptr);
  eject_links_.resize(params_.nodes, nullptr);

  // Create routers. Port convention: 0..k-1 down, k..2k-1 up.
  routers_.reserve(topo_.router_count());
  for (unsigned l = 0; l < topo_.levels; ++l) {
    for (std::uint64_t w = 0; w < topo_.routers_per_level; ++w) {
      Router::Params rp;
      rp.num_inputs = 2 * k;
      rp.num_outputs = 2 * k;
      // Creation-order fault lane: stable for a given topology, so the
      // fault schedule each router sees replays from the seed alone.
      rp.fault_lane = static_cast<std::uint32_t>(routers_.size());
      auto route = [this, l, w](const Packet& p) {
        return topo_.route_port(l, w, p.dest);
      };
      routers_.push_back(std::make_unique<Router>(
          kernel_, this->name() + ".r" + std::to_string(l) + "_" +
                       std::to_string(w),
          rp, route));
    }
  }

  // Node <-> leaf router links.
  for (sim::NodeId node = 0; node < params_.nodes; ++node) {
    const std::uint64_t w = node / k;
    const unsigned port = node % k;
    Router* leaf = routers_[topo_.router_index(0, w)].get();

    Link* up = new_link("inj" + std::to_string(node));
    up->set_sink([leaf, port](Packet&& p) { leaf->receive(port, std::move(p)); });
    leaf->connect_input_upstream(port, up);
    inject_links_[node] = up;

    Link* down = new_link("ej" + std::to_string(node));
    down->set_sink([this, node](Packet&& p) {
      count_delivery(kernel_, p);
      assert(endpoints_[node] && "endpoint not attached");
      endpoints_[node](std::move(p));
    });
    leaf->connect_output(port, down);
    eject_links_[node] = down;
  }

  // Inter-level links: <l, w> up port c  <->  <l+1, w[l->c]> down port
  // digit_l(w), one link per direction.
  for (unsigned l = 0; l + 1 < topo_.levels; ++l) {
    for (std::uint64_t w = 0; w < topo_.routers_per_level; ++w) {
      Router* lo = routers_[topo_.router_index(l, w)].get();
      for (unsigned c = 0; c < k; ++c) {
        const std::uint64_t w_hi = topo_.set_digit(w, l, c);
        const unsigned hi_port = topo_.digit(w, l);
        Router* hi = routers_[topo_.router_index(l + 1, w_hi)].get();

        Link* up = new_link('u' + std::to_string(l) + '_' +
                            std::to_string(w) + '_' + std::to_string(c));
        up->set_sink(
            [hi, hi_port](Packet&& p) { hi->receive(hi_port, std::move(p)); });
        hi->connect_input_upstream(hi_port, up);
        lo->connect_output(k + c, up);

        Link* dn = new_link('d' + std::to_string(l) + '_' +
                            std::to_string(w) + '_' + std::to_string(c));
        dn->set_sink(
            [lo, c, k](Packet&& p) { lo->receive(k + c, std::move(p)); });
        lo->connect_input_upstream(k + c, dn);
        hi->connect_output(hi_port, dn);
      }
    }
  }

  for (auto& r : routers_) {
    r->start();
  }
}

Link* FatTreeNetwork::new_link(std::string link_name) {
  Link::Params lp = params_.link;
  lp.fault_lane = static_cast<std::uint32_t>(links_.size());
  links_.push_back(std::make_unique<Link>(
      kernel_, name() + "." + std::move(link_name), lp));
  return links_.back().get();
}

void FatTreeNetwork::set_endpoint(sim::NodeId node, Deliver deliver) {
  endpoints_.at(node) = std::move(deliver);
}

sim::Co<void> FatTreeNetwork::inject(Packet pkt) {
  if (pkt.dest >= params_.nodes) {
    throw std::out_of_range(name() + ": bad destination node");
  }
  pkt.inject_time = now();
  if (pkt.serial == 0) {
    // A tracing NIU already stamped a flow id; otherwise number here.
    pkt.serial = assign_serial(pkt.src);
  }
  count_inject(pkt.src);
  co_await inject_links_[pkt.src]->send(std::move(pkt));
}

Network::Audit FatTreeNetwork::audit() const {
  Audit a = Network::audit();
  for (const auto& link : links_) {
    a.dropped += link->packets_dropped().value();
  }
  return a;
}

void FatTreeNetwork::consume_done(sim::NodeId node, std::uint8_t priority) {
  eject_links_.at(node)->return_credit(priority);
}

}  // namespace sv::net
