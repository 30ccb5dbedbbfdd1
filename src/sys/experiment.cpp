#include "sys/experiment.hpp"

namespace sv::sys {

bool run_until(sim::Kernel& kernel, const std::function<bool()>& pred,
               sim::Tick deadline) {
  while (!pred()) {
    if (kernel.idle() || kernel.next_event_time() > deadline) {
      return false;
    }
    kernel.step();
  }
  return true;
}

}  // namespace sv::sys
