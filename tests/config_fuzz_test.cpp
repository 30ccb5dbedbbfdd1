// Config fuzz: seeded, mutated key=value lines for every registry workload
// (sys/workload.hpp). Each case goes through the path svsim takes —
// Config::from_args, check_keys, machine_params, the Machine and
// Workload::launch — and must either be accepted or be rejected with
// std::invalid_argument. Anything else escaping (another exception type,
// an abort) is a bug: bad input is rejected with a message, never a crash.
//
// Machines stay small: nodes is capped at 8 after machine_params, and a
// key's in-range upper boundary is only tried when it is small, so the
// cases that launch (xfer runs its transfer inside launch) stay cheap.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sys/workload.hpp"

namespace sv {
namespace {

constexpr std::size_t kMaxNodes = 8;
constexpr int kCasesPerWorkload = 100;

/// In-range spellings of `k`. None makes a run lossy (rates stay 0, and
/// a drop script names only opportunities a short run never reaches): xfer
/// runs its transfer inside launch, and a lossy one runs to its deadline.
std::vector<std::string> good_values(const sys::Key& k) {
  switch (k.type) {
    case sys::Key::kUint: {
      std::vector<std::string> v = {std::to_string(k.lo),
                                    std::to_string(k.lo + 1)};
      if (k.hi <= 4096) {
        v.push_back(std::to_string(k.hi));
      }
      if (!k.def.empty()) {
        v.push_back(k.def);
      }
      return v;
    }
    case sys::Key::kRate:
      return {"0", "0.0"};
    case sys::Key::kBool:
      return {"0", "1", "true", "off"};
    case sys::Key::kChoice: {
      std::vector<std::string> v;
      for (std::size_t b = 0, e = 0; e != std::string::npos; b = e + 1) {
        e = k.range.find('|', b);
        v.push_back(k.range.substr(b, e - b));
      }
      return v;
    }
    case sys::Key::kText:
      break;
  }
  return {"4294967296", "18446744073709551615,4294967296"};
}

/// Spellings that are malformed, empty, negative, fractional, overflowing
/// or out of range for `k`.
std::vector<std::string> odd_values(const sys::Key& k) {
  std::vector<std::string> v = {"",   "-1",  "abc", " 1", "1 ", "+1",
                                "nan", "3,,9", "9,3,",
                                "18446744073709551616",
                                "99999999999999999999999"};
  if (k.type == sys::Key::kUint) {
    v.insert(v.end(), {"0.5", "1e3"});
    if (k.lo > 0) {
      v.push_back(std::to_string(k.lo - 1));
    }
    if (k.hi != sys::kNoLimit) {
      v.push_back(std::to_string(k.hi + 1));
    }
  } else if (k.type == sys::Key::kRate) {
    v.insert(v.end(), {"1.5", "-0.5", "1e3", "0x10"});
  }
  for (const std::string& g : good_values(k)) {
    v.push_back(g + "x");
  }
  return v;
}

template <typename T>
const T& pick(const std::vector<T>& v, sim::Rng& rng) {
  return v[rng.below(v.size())];
}

/// One command line for `w`: up to three keys set in range, then (three
/// times in four) one odd edit: a key set to an odd spelling, a misspelt
/// or invented key, a repeated key, or a line that is not key=value.
std::vector<std::string> mutate(const sys::Workload& w, sim::Rng& rng) {
  std::vector<const sys::Key*> keys;
  for (const sys::KeyTable* t : {&sys::machine_keys(), &w.keys}) {
    for (const sys::Key& k : *t) {
      keys.push_back(&k);
    }
  }
  std::vector<std::string> lines;
  for (auto n = rng.below(4); n > 0; --n) {
    const sys::Key& k = *pick(keys, rng);
    lines.push_back(k.name + "=" + pick(good_values(k), rng));
  }
  if (rng.below(4) == 0) {
    return lines;
  }
  const sys::Key& k = *pick(keys, rng);
  const std::string value = pick(odd_values(k), rng);
  switch (rng.below(6)) {
    case 0: {  // misspelt: drop or double one character
      std::string name = k.name;
      const auto at = rng.below(name.size());
      if (rng.below(2) == 0) {
        name.erase(at, 1);
      } else {
        name.insert(at, 1, name[at]);
      }
      lines.push_back(name + "=" + pick(good_values(k), rng));
      break;
    }
    case 1:
      lines.push_back("no.such.key=" + value);
      break;
    case 2:  // repeated key: the last spelling wins
      lines.push_back(k.name + "=" + value);
      lines.push_back(k.name + "=" + pick(good_values(k), rng));
      break;
    case 3:
      lines.push_back(rng.below(2) == 0 ? "=" + value : k.name);
      break;
    default:
      lines.push_back(k.name + "=" + value);
      break;
  }
  return lines;
}

/// Run one case; returns "" when it was accepted or rejected with
/// std::invalid_argument, else what escaped.
std::string run_case(const sys::Workload& w,
                     const std::vector<std::string>& lines) {
  try {
    const sim::Config cfg = sim::Config::from_args(lines);
    sys::check_keys(cfg, {&sys::machine_keys(), &w.keys});
    sys::Machine::Params p = sys::machine_params(cfg);
    p.nodes = std::min(p.nodes, kMaxNodes);
    sys::Machine machine(p);
    (void)w.launch(machine, cfg);
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    return std::string("std::exception: ") + e.what();
  } catch (...) {
    return "a non-std exception";
  }
  return "";
}

TEST(ConfigFuzz, MutatedKeyValueLinesAreAcceptedOrRejected) {
  sim::Rng rng(20261017);
  for (const sys::Workload& w : sys::workloads()) {
    for (int c = 0; c < kCasesPerWorkload; ++c) {
      const auto lines = mutate(w, rng);
      std::string args;
      for (const std::string& l : lines) {
        args += " '" + l + "'";
      }
      EXPECT_EQ(run_case(w, lines), "") << "svsim " << w.name << args;
    }
  }
}

}  // namespace
}  // namespace sv
