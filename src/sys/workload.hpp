// The workload registry: every workload svsim runs, declared once.
//
// An entry is a name, a table of the keys it reads — each with a type,
// default, range and one-line doc — and a launch function that starts the
// entry's node programs on a machine the caller built. svsim, svexplore
// and the test harnesses launch entries from here, so each driver exists
// once. Launching does not run the machine: each caller drives it with
// Machine::run_epochs_until under its own stop rule (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "app/apps.hpp"
#include "msg/reliable.hpp"
#include "sim/config.hpp"
#include "sim/stats.hpp"
#include "sys/machine.hpp"

namespace sv::sys {

/// One declared key. `def` is spelled as on the command line; an empty
/// default means "absent unless given" and the doc says what absence means.
struct Key {
  enum Type { kUint, kRate, kBool, kText, kChoice };
  std::string name;
  Type type = kUint;
  std::string def;
  std::uint64_t lo = 0;  ///< kUint: inclusive range
  std::uint64_t hi = 0;
  std::string range;     ///< as --help shows it; kChoice: "a|b|c"
  std::string doc;
};
using KeyTable = std::vector<Key>;

inline constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};

Key uint_key(std::string name, std::uint64_t def, std::uint64_t lo,
             std::uint64_t hi, std::string doc);
Key rate_key(std::string name, std::string doc);  ///< [0, 1], default 0
Key bool_key(std::string name, std::string def, std::string doc);
Key text_key(std::string name, std::string doc, std::string def = "");
Key choice_key(std::string name, std::string def, std::string choices,
               std::string doc);

/// Throws std::invalid_argument, one line naming the key, unless every key
/// `cfg` sets is declared in `tables` with a value of its type and range.
/// An unknown key's line also names any declared key within edit distance 2.
void check_keys(const sim::Config& cfg,
                std::initializer_list<const KeyTable*> tables);

/// One help line per key: name=default, range, doc.
void print_keys(std::ostream& os, const KeyTable& keys);

/// `cfg` read through a key table: the table's keys are range-checked on
/// construction and absent ones take their default. Keys the table does
/// not declare are ignored; they belong to the machine or the caller.
class Args {
 public:
  Args(const sim::Config& cfg, const KeyTable& keys);
  [[nodiscard]] std::uint64_t u64(const std::string& k) const {
    return cfg_.get_u64(k, 0);
  }
  [[nodiscard]] bool flag(const std::string& k) const {
    return cfg_.get_bool(k, false);
  }
  [[nodiscard]] std::string text(const std::string& k) const {
    return cfg_.get_string(k);
  }
  [[nodiscard]] bool has(const std::string& k) const {
    return cfg_.contains(k);
  }

 private:
  sim::Config cfg_;
};

/// Keys every workload accepts: the machine's shape and fault plan.
const KeyTable& machine_keys();
Machine::Params machine_params(const sim::Config& cfg);

/// Keys of a run rather than of the machine or the workload: its time
/// limit, stats and trace output, and checkpoints (svsim's own keys).
const KeyTable& run_keys();

/// A launched workload: the state its node programs share with the
/// caller, who reads it only at epoch boundaries. The programs hold its
/// address, so it never moves.
struct Run {
  using Values = std::map<std::string, double>;

  explicit Run(Machine& m)
      : machine(m), done(m.size(), 1), ended(m.size(), 0), start(m.now()) {}
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  Machine& machine;
  /// Per-node completion flag and finishing tick, written only by that
  /// node's program (so by the domain that owns the node) through
  /// finish(): valid under threads=N.
  std::vector<std::uint8_t> done;
  std::vector<sim::Tick> ended;
  /// Where the measured interval begins: the launch tick, unless one
  /// node's program restarts it after a warm-up.
  sim::Tick start;
  std::vector<std::unique_ptr<msg::Endpoint>> endpoints;
  std::vector<std::unique_ptr<msg::ReliableChannel>> channels;  ///< reliable
  std::vector<std::uint8_t> gave_up;  ///< reliable: node gave up on a peer
  std::vector<std::string> mismatch;  ///< reliable: node's first bad payload
  std::unique_ptr<app::World> world;  ///< app.*
  app::AppResult app;                 ///< app.*, written by rank 0's node
  bool verified = true;               ///< xfer: the data arrived intact
  std::shared_ptr<void> state;  ///< objects the programs use, kept alive
  std::function<std::string(const Run&)> describe;
  /// A driver's named results, derived after the run from what its
  /// programs recorded; svexp reads them (with the stat keys) as fields.
  std::function<Values(const Run&)> measure;

  /// Node `n`'s program is done: set done[n] and record the tick.
  void finish(sim::NodeId n);
  /// Every node program (or app rank) has returned.
  [[nodiscard]] bool finished() const;
  /// The first correctness failure, or "": a reliable payload mismatch,
  /// app tolerance errors or an xfer verify failure.
  [[nodiscard]] std::string failure() const;
  [[nodiscard]] bool any_gave_up() const;
  /// The machine's counters plus, for app.*, the World's app.* ones.
  [[nodiscard]] sim::StatRegistry stats() const;
  /// One line: what ran and how long it took in simulated time; without
  /// describe, the values as name=value.
  [[nodiscard]] std::string report() const;
  /// The tick at which the last node program (or app rank) finished.
  [[nodiscard]] sim::Tick end() const;
  [[nodiscard]] double elapsed_us() const {
    return static_cast<double>(end() - start) / 1e6;
  }
  /// elapsed_us and the driver's measure().
  [[nodiscard]] Values values() const;
};

struct Workload {
  std::string name;
  std::string doc;
  KeyTable keys;
  std::function<std::unique_ptr<Run>(Machine&, const Args&)> start;

  /// Start the node programs on `machine`. Throws std::invalid_argument
  /// naming the key if a value is out of range or the machine cannot run
  /// this workload.
  [[nodiscard]] std::unique_ptr<Run> launch(Machine& machine,
                                            const sim::Config& cfg) const {
    return start(machine, Args(cfg, keys));
  }
};

const std::vector<Workload>& workloads();
/// The entry called `name`; throws std::invalid_argument if none is.
const Workload& workload(std::string_view name);

}  // namespace sv::sys
