#include "sys/experiment.hpp"

#include <algorithm>
#include <sstream>

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

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c]) + 2) << cells[c];
    }
    os << '\n';
  };
  line(headers_);
  std::size_t total = 0;
  for (auto w : widths) {
    total += w + 2;
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    line(row);
  }
}

std::string Table::fmt_us(sim::Tick ps) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(2)
      << static_cast<double>(ps) / 1e6;
  return oss.str();
}

std::string Table::fmt_mbps(double bytes, sim::Tick ps) {
  if (ps == 0) {
    return "inf";
  }
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(1)
      << bytes / (static_cast<double>(ps) * 1e-12) / 1e6;
  return oss.str();
}

std::string Table::fmt_pct(double frac) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(1) << frac * 100.0 << "%";
  return oss.str();
}

}  // namespace sv::sys
