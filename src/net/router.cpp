#include "net/router.hpp"

#include <cassert>
#include <stdexcept>

#include "fault/fault.hpp"

namespace sv::net {

Router::Router(sim::Kernel& kernel, std::string name, Params params,
               RouteFn route)
    : sim::SimObject(kernel, std::move(name)),
      params_(params),
      route_(std::move(route)),
      inputs_(params.num_inputs),
      outputs_(params.num_outputs, nullptr),
      rr_next_(params.num_outputs, 0),
      work_(kernel) {}

void Router::receive(unsigned in, Packet&& pkt) {
  assert(in < inputs_.size());
  assert(pkt.priority < kNumPriorities);
  inputs_[in].vq[pkt.priority].push_back(std::move(pkt));
  work_.pulse();
}

void Router::connect_output(unsigned out, Link* link) {
  assert(out < outputs_.size());
  outputs_[out] = link;
}

void Router::connect_input_upstream(unsigned in, Link* link) {
  assert(in < inputs_.size());
  inputs_[in].upstream = link;
}

void Router::start() {
  if (started_) {
    throw std::logic_error(name() + ": started twice");
  }
  started_ = true;
  for (unsigned o = 0; o < outputs_.size(); ++o) {
    if (outputs_[o] != nullptr) {
      sim::spawn(output_process(o));
    }
  }
}

int Router::pick_input(unsigned out, std::uint8_t priority) {
  const unsigned n = static_cast<unsigned>(inputs_.size());
  for (unsigned k = 0; k < n; ++k) {
    const unsigned i = (rr_next_[out] + k) % n;
    const auto& q = inputs_[i].vq[priority];
    if (!q.empty() && route_(q.front()) == out) {
      rr_next_[out] = (i + 1) % n;
      return static_cast<int>(i);
    }
  }
  return -1;
}

sim::Co<void> Router::output_process(unsigned out) {
  Link* link = outputs_[out];
  for (;;) {
    int in = -1;
    std::uint8_t prio = kPriorityHigh;
    for (;;) {
      in = pick_input(out, kPriorityHigh);
      if (in >= 0) {
        prio = kPriorityHigh;
        break;
      }
      in = pick_input(out, kPriorityLow);
      if (in >= 0) {
        prio = kPriorityLow;
        break;
      }
      co_await work_;
    }

    InPort& port = inputs_[static_cast<unsigned>(in)];
    Packet pkt = std::move(port.vq[prio].front());
    port.vq[prio].pop_front();
    // The buffer slot is free: return the credit upstream immediately.
    if (port.upstream != nullptr) {
      port.upstream->return_credit(prio);
    }

    const sim::Tick route_start = now();
    if (fault::Injector* inj = kernel_.fault_injector()) {
      // Backpressure bubble on the output port, plus (for low-priority
      // traffic only) an extra starvation window modelling a high-priority
      // storm monopolizing the crossbar.
      if (const std::uint32_t stall =
              inj->router_stall_cycles(kernel_, params_.fault_lane)) {
        co_await sim::delay(kernel_, params_.clock.to_ticks(stall));
      }
      if (prio == kPriorityLow) {
        if (const std::uint32_t starve =
                inj->starvation_cycles(kernel_, params_.fault_lane)) {
          co_await sim::delay(kernel_, params_.clock.to_ticks(starve));
        }
      }
    }
    co_await sim::delay(kernel_,
                        params_.clock.to_ticks(params_.fall_through_cycles));
    if (trace::Tracer* tr = kernel_.tracer(); tr != nullptr) {
      if (trace_track_ == trace::kNoTrack) {
        trace_track_ = tr->track_for(name(), "router");
      }
      tr->span(trace_track_, "route out" + std::to_string(out), route_start,
               now(), pkt.serial);
    }
    co_await link->send(std::move(pkt));
    routed_.inc();
  }
}

}  // namespace sv::net
