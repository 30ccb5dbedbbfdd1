// Experiment harness helpers: drive a kernel until a predicate holds, and
// format result tables.
#pragma once

#include <functional>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "sys/machine.hpp"

namespace sv::sys {

/// Run the kernel until `pred()` holds or `deadline` passes. Returns true
/// if the predicate was satisfied. (The machine's service loops never
/// terminate, so the event queue never drains — completion is always
/// predicate-based.)
bool run_until(sim::Kernel& kernel, const std::function<bool()>& pred,
               sim::Tick deadline);

/// Simple fixed-width table printer for bench output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  static std::string fmt_us(sim::Tick ps);
  static std::string fmt_mbps(double bytes, sim::Tick ps);
  static std::string fmt_pct(double frac);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sv::sys
