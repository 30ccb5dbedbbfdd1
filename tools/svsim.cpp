// svsim: command-line driver for the simulated StarT-Voyager machine.
//
// Runs one workload from the registry (sys/workload.hpp) on a machine
// built from key=value arguments, prints a one-line report and, with
// stats=1, every component's counters. `svsim --help` prints the key
// tables that also validate the arguments: an unknown key or a malformed
// or out-of-range value is one line on stderr and exit 2. trace=FILE
// drains every domain's tracer into one Chrome JSON file at each epoch
// barrier. Checkpoints and --restore follow DESIGN.md §14; the snapshot
// config format is ckpt/scenario.hpp's.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/capture.hpp"
#include "ckpt/scenario.hpp"
#include "sys/workload.hpp"
#include "trace/chrome_sink.hpp"

using namespace sv;

namespace {

void print_help() {
  std::cout
      << "usage: svsim WORKLOAD [key=value ...]\n"
         "       svsim --restore=FILE   replay a snapshot, verify, finish\n"
         "--checkpoint-at=, --checkpoint-every= and --checkpoint-out= spell\n"
         "ckpt.at=, ckpt.every= and ckpt.out=.\n\nmachine keys:\n";
  sys::print_keys(std::cout, sys::machine_keys());
  std::cout << "run keys:\n";
  sys::print_keys(std::cout, sys::run_keys());
  std::cout << "workloads:\n";
  for (const auto& w : sys::workloads()) {
    std::cout << "  " << w.name << ": " << w.doc << '\n';
    sys::print_keys(std::cout, w.keys);
  }
}

/// Turn --checkpoint-X= into the ckpt.X= key and take out
/// --restore=FILE; returns the restore path ("" = none).
std::string take_flags(std::vector<std::string>& args) {
  std::string restore;
  std::vector<std::string> out;
  for (auto& a : args) {
    if (a.rfind("--checkpoint-", 0) == 0) {
      a = "ckpt." + a.substr(std::strlen("--checkpoint-"));
    }
    if (a.rfind("--restore=", 0) == 0) {
      restore = a.substr(std::strlen("--restore="));
    } else {
      out.push_back(a);
    }
  }
  args = std::move(out);
  return restore;
}

/// Drive a launched run to completion, pausing at epoch boundaries to
/// byte-verify a restored run's replay at its snapshot's tick and to write
/// the requested snapshots. The pause points are the same for every
/// threads= value, and so are the snapshots. Every epoch barrier drains
/// the tracers into `writer`, when there is one. Returns 0 when the node
/// programs finished.
int drive(sys::Machine& machine, const ckpt::RunConfig& rc,
          const sys::Args& opts, const sys::Run& run,
          const ckpt::Snapshot* restore, trace::ChromeWriter* writer) {
  const sim::Tick deadline =
      machine.now() + opts.u64("deadline_ms") * sim::kMillisecond;
  const auto tracers = machine.tracers();
  const auto ready = [&] {
    if (writer != nullptr) {
      writer->drain(tracers);
    }
    return run.finished();
  };
  // False when the run finished (or ran out of time) before `tick`.
  const auto pause_at = [&](sim::Tick tick) {
    machine.run_epochs_until([&] { return ready() || machine.now() >= tick; },
                             deadline);
    return machine.now() >= tick;
  };
  if (restore != nullptr && pause_at(restore->tick)) {
    // Compared under the snapshot's own config text, which built this run:
    // one written before every key was embedded holds fewer lines.
    try {
      ckpt::Snapshot::verify(
          *restore, ckpt::capture(machine, restore->config, &run));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "svsim: restore verify FAILED: %s\n", e.what());
      return 1;
    }
    std::printf("restore: replayed to tick %llu, %zu chunks verified "
                "byte-identical\n",
                static_cast<unsigned long long>(restore->tick),
                restore->chunks().size());
  }
  const std::string config = ckpt::snapshot_config(rc);
  const auto every = opts.u64("ckpt.every");
  for (sim::Tick at = opts.u64("ckpt.at") != 0 ? opts.u64("ckpt.at") : every;
       at != 0 && pause_at(at); at = every != 0 ? machine.now() + every : 0) {
    std::string path = opts.text("ckpt.out");
    if (every != 0) {
      path += '.' + std::to_string(machine.now()) + ".svck";
    }
    const ckpt::Snapshot snap = ckpt::capture(machine, config, &run);
    snap.save_file(path);
    std::printf("checkpoint: tick %llu, %zu chunks -> %s\n",
                static_cast<unsigned long long>(snap.tick),
                snap.chunks().size(), path.c_str());
  }
  if (!machine.run_epochs_until(ready, deadline)) {
    std::fprintf(stderr, "svsim: timed out%s\n",
                 run.any_gave_up() ? " (a reliable channel gave up)" : "");
    return 1;
  }
  return 0;
}

/// Drain what the run left in the tracers and close the trace file.
int write_trace(sys::Machine& machine, trace::ChromeWriter& writer,
                std::ofstream& os, const std::string& file) {
  writer.drain(machine.tracers());
  writer.finish(machine.now());
  if (!os) {
    std::fprintf(stderr, "svsim: trace: write failed for %s\n", file.c_str());
    return 1;
  }
  std::printf("trace: %llu events (%llu dropped) -> %s\n",
              static_cast<unsigned long long>(writer.events_written()),
              static_cast<unsigned long long>(writer.dropped()), file.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) {
    print_help();
    return 0;
  }
  std::string name;
  if (!args.empty() && args[0].rfind("--", 0) != 0) {
    name = args[0];
    args.erase(args.begin());
  }
  const std::string restore_path = take_flags(args);

  ckpt::RunConfig config;
  ckpt::Snapshot restored;
  std::optional<sys::Args> opts;
  std::unique_ptr<sys::Machine> machine;
  std::unique_ptr<sys::Run> run;
  std::ofstream trace_os;
  std::optional<trace::ChromeWriter> writer;
  try {
    if (!restore_path.empty()) {
      // The snapshot is the configuration: anything else on the command
      // line would silently fork the replay from the original run.
      if (!name.empty() || !args.empty()) {
        throw std::invalid_argument("--restore takes no other arguments");
      }
      restored = ckpt::Snapshot::load_file(restore_path);
      config = ckpt::snapshot_args(restored);
    } else if (name.empty()) {
      throw std::invalid_argument(
          "no workload given (svsim --help lists them)");
    } else {
      config = ckpt::run_config(name, args);
    }
    const sim::Config& cfg = config.cfg;
    opts.emplace(cfg, sys::run_keys());
    if (!opts->text("trace").empty()) {
      trace_os.open(opts->text("trace"));
      if (!trace_os) {
        throw std::invalid_argument("trace: cannot open " +
                                    opts->text("trace"));
      }
      writer.emplace(trace_os);
    }
    machine = std::make_unique<sys::Machine>(sys::machine_params(cfg));
    if (writer) {
      machine->enable_tracing();
    }
    run = sys::workload(config.workload).launch(*machine, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svsim: %s\n", e.what());
    if (writer) {  // no run, so no trace: leave no half-written file
      trace_os.close();
      std::remove(opts->text("trace").c_str());
    }
    return 2;
  }

  int rc = drive(*machine, config, *opts, *run,
                 restore_path.empty() ? nullptr : &restored,
                 writer ? &*writer : nullptr);
  if (rc == 0) {
    std::printf("%s\n", run->report().c_str());
    rc = run->failure().empty() ? 0 : 1;
  }
  if (writer && write_trace(*machine, *writer, trace_os,
                            opts->text("trace")) != 0) {
    return 1;
  }
  if (opts->flag("stats")) {
    const sim::StatRegistry reg = run->stats();
    if (opts->text("stats_format") == "json") {
      reg.dump_json(std::cout);
    } else {
      std::printf("\n--- machine statistics ---\n");
      reg.dump(std::cout);
    }
  }
  return rc;
}
