// svexp: regenerate the simulated tables of a markdown file.
//
//   svexp FILE.md
//
// prints FILE.md back with every table that follows an `<!-- svexp`
// comment rebuilt from the spec in that comment; every other line is
// copied as is. The spec, one directive per line:
//
//   <!-- svexp LABEL HEAD | LABEL HEAD ... :: WORDS
//   col HEAD :: WORDS                 (one per value column)
//   row LABEL | LABEL ... :: WORDS    (one per table row)
//   -->
//
// Each cell is one run: the first line's words, then its column's, then
// its row's. Words are svsim's (a workload name and key=value pairs) plus
// `$FIELD` or `$FIELD/N` (the field divided by N) and a printf format for
// one number, which runs to the end of the line (`%.2f µs`). A later
// workload, field or format replaces an earlier one, and a later key wins
// as it does on svsim's command line. A field is a value the workload's
// driver records (sys::Run::values) or a stats key. Each distinct command
// runs once, on a fresh machine, through the config check, machine and
// launch svsim uses, to completion within its deadline_ms.
//
// Exit status 1 when a run fails (times out or reports a failure), 2 on
// bad usage or a bad spec; the message on stderr names the command.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/scenario.hpp"
#include "sys/workload.hpp"

using namespace sv;

namespace {

using Fields = std::map<std::string, double>;

/// A run that timed out or reported a failure (a bad spec throws
/// std::invalid_argument instead).
struct RunFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos
             ? ""
             : s.substr(b, s.find_last_not_of(' ') - b + 1);
}

/// `text` split at `sep`, each part trimmed.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string p; std::getline(in, p, sep);) {
    parts.push_back(trim(p));
  }
  return parts;
}

/// Throws unless `fmt` converts exactly one double with %f, %e or %g.
void check_format(const std::string& fmt) {
  int conversions = 0;
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      continue;
    }
    i = fmt.find_first_not_of("-+ #0123456789.", i + 1);
    if (i == std::string::npos ||
        std::string("%feg").find(fmt[i]) == std::string::npos) {
      throw std::invalid_argument("bad format '" + fmt + "'");
    }
    conversions += fmt[i] != '%';
  }
  if (conversions != 1) {
    throw std::invalid_argument("format '" + fmt +
                                "' must convert one number");
  }
}

/// One cell's command, field and format.
struct Cell {
  std::string workload;
  std::vector<std::string> args;
  std::string field;
  double divisor = 1;
  std::string format;

  /// Apply `words` over this cell's.
  void add(const std::string& words) {
    const auto pct = words.find('%');
    std::istringstream in(words.substr(0, pct));
    for (std::string w; in >> w;) {
      if (w[0] == '$') {
        const auto slash = w.find('/');
        field = w.substr(1, slash == std::string::npos ? slash : slash - 1);
        divisor =
            slash == std::string::npos ? 1 : std::stod(w.substr(slash + 1));
      } else if (w.find('=') != std::string::npos) {
        args.push_back(w);
      } else {
        workload = w;
      }
    }
    if (pct != std::string::npos) {
      format = trim(words.substr(pct));
      check_format(format);
    }
  }

  [[nodiscard]] std::string command() const {
    std::string c = workload;
    for (const std::string& a : args) {
      c += " " + a;
    }
    return c;
  }
};

/// Run `cell`'s command as svsim would and return its fields.
Fields run(const Cell& cell) {
  const ckpt::RunConfig rc = ckpt::run_config(cell.workload, cell.args);
  sys::Machine machine(sys::machine_params(rc.cfg));
  const auto run = sys::workload(rc.workload).launch(machine, rc.cfg);
  const sim::Tick deadline =
      machine.now() + sys::Args(rc.cfg, sys::run_keys()).u64("deadline_ms") *
                          sim::kMillisecond;
  if (!machine.run_epochs_until([&] { return run->finished(); }, deadline)) {
    throw RunFailed("timed out");
  }
  if (const std::string f = run->failure(); !f.empty()) {
    throw RunFailed(f);
  }
  Fields fields = run->stats().all();
  for (const auto& [name, value] : run->values()) {
    fields[name] = value;
  }
  return fields;
}

/// The cell's number, formatted; each command runs once.
std::string value(const Cell& cell) {
  static std::map<std::string, Fields> runs;
  const std::string cmd = cell.command();
  if (runs.count(cmd) == 0) {
    try {
      runs[cmd] = run(cell);
    } catch (const RunFailed& e) {
      throw RunFailed(cmd + ": " + e.what());
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(cmd + ": " + e.what());
    }
  }
  const Fields& f = runs[cmd];
  if (f.count(cell.field) == 0 || cell.format.empty()) {
    throw std::invalid_argument(cmd + ": no field '" + cell.field +
                                "' or no format");
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), cell.format.c_str(),
                f.at(cell.field) / cell.divisor);
  return buf;
}

std::string table_row(const std::vector<std::string>& cells) {
  std::string line = "|";
  for (const std::string& c : cells) {
    line += " " + c + " |";
  }
  return line + "\n";
}

/// The text before a spec line's "::"; the words after it go to `words`.
std::string text_of(const std::string& line, std::string* words) {
  const auto sep = line.find("::");
  if (sep == std::string::npos) {
    throw std::invalid_argument("expected 'TEXT :: WORDS': '" + line + "'");
  }
  *words = line.substr(sep + 2);
  return line.substr(0, sep);
}

/// The markdown table a spec describes; spec[0] is its `<!-- svexp` line.
std::string table(const std::vector<std::string>& spec) {
  std::string words;
  std::vector<std::string> head =
      split(text_of(spec[0], &words).substr(std::strlen("<!-- svexp")), '|');
  std::vector<std::string> cols;
  std::string rows;
  for (std::size_t i = 1; i < spec.size(); ++i) {
    std::string own;
    const std::string text = text_of(spec[i], &own);
    if (text.rfind("col ", 0) == 0 && rows.empty()) {
      head.push_back(trim(text.substr(4)));
      cols.push_back(own);
    } else if (text.rfind("row ", 0) == 0) {
      std::vector<std::string> cells = split(text.substr(4), '|');
      for (const std::string& col : cols) {
        Cell cell;
        cell.add(words);
        cell.add(col);
        cell.add(own);
        cells.push_back(value(cell));
      }
      rows += table_row(cells);
    } else {
      throw std::invalid_argument("unexpected spec line '" + spec[i] + "'");
    }
  }
  std::string rule = "|";
  for (std::size_t i = 0; i < head.size(); ++i) {
    rule += "---|";
  }
  return table_row(head) + rule + "\n" + rows;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: svexp FILE.md\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "svexp: cannot read %s\n", argv[1]);
    return 2;
  }
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);) {
    lines.push_back(l);
  }
  std::string out;
  try {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind("<!-- svexp", 0) != 0) {
        out += lines[i] + "\n";
        continue;
      }
      std::vector<std::string> spec;
      for (; i < lines.size() && lines[i] != "-->"; ++i) {
        spec.push_back(lines[i]);
        out += lines[i] + "\n";
      }
      if (i == lines.size()) {
        throw std::invalid_argument("'" + spec[0] + "' has no '-->' line");
      }
      out += "-->\n" + table(spec);
      while (i + 1 < lines.size() && lines[i + 1].rfind('|', 0) == 0) {
        ++i;  // the table being replaced
      }
    }
  } catch (const RunFailed& e) {
    std::fprintf(stderr, "svexp: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svexp: %s\n", e.what());
    return 2;
  }
  std::cout << out;
  return 0;
}
