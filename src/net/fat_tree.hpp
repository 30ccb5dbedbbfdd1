// The MIT Arctic fat-tree fabric: a k-ary n-tree of Arctic routers.
//
// Topology (standard k-ary n-tree): k^n endpoints, n levels of k^(n-1)
// routers. A level-l router and a level-(l+1) router are linked iff their
// (n-1)-digit base-k indices agree everywhere except digit l. Routing goes
// up to the lowest common ancestor (deterministic up-port choice for
// reproducibility), then down along the destination's digits — the
// deadlock-free up*/down* scheme fat trees support.
#pragma once

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "net/topology.hpp"

namespace sv::net {

class FatTreeNetwork final : public Network {
 public:
  struct Params {
    std::size_t nodes = 8;
    unsigned radix = 4;  // k: Arctic switches form radix-4 trees
    Link::Params link;
  };

  FatTreeNetwork(sim::Kernel& kernel, std::string name, Params params);

  void set_endpoint(sim::NodeId node, Deliver deliver) override;
  sim::Co<void> inject(Packet pkt) override;
  void consume_done(sim::NodeId node, std::uint8_t priority) override;
  [[nodiscard]] std::size_t num_nodes() const override {
    return params_.nodes;
  }

  /// Base counts plus fault drops summed over every link in the fabric.
  [[nodiscard]] Audit audit() const override;

  // Topology introspection (tests, reporting). The arithmetic lives in
  // FatTreeTopology so it can be property-checked without a network.
  [[nodiscard]] const FatTreeTopology& topology() const { return topo_; }
  [[nodiscard]] unsigned levels() const { return topo_.levels; }
  [[nodiscard]] std::size_t router_count() const { return routers_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  /// Router hops a packet from src to dst traverses.
  [[nodiscard]] unsigned hops(sim::NodeId src, sim::NodeId dst) const {
    return topo_.hops(src, dst);
  }

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Link* new_link(std::string name);

  Params params_;
  FatTreeTopology topo_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Link*> inject_links_;  // node -> leaf router
  std::vector<Link*> eject_links_;   // leaf router -> node
  std::vector<Deliver> endpoints_;
};

}  // namespace sv::net
