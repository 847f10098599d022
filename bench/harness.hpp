#pragma once
// One way to write and gate a bench. Every committed BENCH_*.json has the
// same layout: a few header fields, then "results": one row object per
// line. This header holds
//  - Row and write_rows: the row builder and the writer of that layout;
//  - read_rows: a line reader that parses each row back into named fields;
//  - compare_rows: the matched-ratio gate behind every --compare flag,
//    for metrics where higher or lower is better, plus absolute floors
//    checked on the fresh run alone;
//  - flag_value / fail_under_arg: the --json / --compare[=PATH] /
//    --fail-under=X parsing the gates share;
//  - time_best: best-of-reps wall time.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tucker::bench {

/// One bench row: named fields in write order, each held as its JSON
/// literal (strings keep their quotes).
class Row {
 public:
  Row& str(const std::string& key, const std::string& v) {
    return add(key, "\"" + v + "\"");
  }
  Row& num(const std::string& key, double v, const char* fmt = "%.3f") {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return add(key, buf);
  }
  Row& integer(const std::string& key, long long v) {
    return add(key, std::to_string(v));
  }
  Row& add(const std::string& key, std::string literal) {
    fields_.emplace_back(key, std::move(literal));
    return *this;
  }

  /// The field's literal, or nullptr when the row lacks it.
  const std::string* literal(const std::string& key) const {
    for (const auto& [k, v] : fields_)
      if (k == key) return &v;
    return nullptr;
  }
  /// The field's text without string quotes ("" when absent).
  std::string text(const std::string& key) const {
    const std::string* v = literal(key);
    if (v == nullptr) return "";
    if (v->size() >= 2 && v->front() == '"') return v->substr(1, v->size() - 2);
    return *v;
  }
  /// The field as a number (NaN when absent or not numeric).
  double value(const std::string& key) const {
    const std::string* v = literal(key);
    if (v == nullptr) return std::nan("");
    char* end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    return end == v->c_str() ? std::nan("") : d;
  }

  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      s += (i ? ", \"" : "\"") + fields_[i].first + "\": " + fields_[i].second;
    return s + "}";
  }
  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Writes `header`'s fields, then `rows` as the "results" array, one row
/// per line (the layout read_rows parses). Returns 0, or 1 when the file
/// cannot be opened.
inline int write_rows(const std::string& path, const Row& header,
                      const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  for (const auto& [k, v] : header.fields())
    std::fprintf(f, "  \"%s\": %s,\n", k.c_str(), v.c_str());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::fprintf(f, "    %s%s\n", rows[i].json().c_str(),
                 i + 1 < rows.size() ? "," : "");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return 0;
}

/// Parses one `{"key": value, ...}` line into a Row; nullopt for lines
/// that hold no complete row object.
inline std::optional<Row> parse_row(const std::string& line) {
  std::size_t i = line.find('{');
  if (i == std::string::npos || line.find('}', i) == std::string::npos)
    return std::nullopt;
  Row row;
  ++i;
  auto skip = [&](const char* chars) {
    while (i < line.size() && std::strchr(chars, line[i]) != nullptr) ++i;
  };
  for (;;) {
    skip(" ,\t");
    if (i >= line.size() || line[i] != '"') break;
    const std::size_t kend = line.find('"', i + 1);
    if (kend == std::string::npos) return std::nullopt;
    const std::string key = line.substr(i + 1, kend - i - 1);
    i = kend + 1;
    skip(" \t");
    if (i >= line.size() || line[i] != ':') return std::nullopt;
    ++i;
    skip(" \t");
    std::size_t vend;
    if (i < line.size() && line[i] == '"') {
      vend = line.find('"', i + 1);
      if (vend == std::string::npos) return std::nullopt;
      ++vend;
    } else {
      vend = line.find_first_of(",}", i);
      if (vend == std::string::npos) return std::nullopt;
    }
    std::string literal = line.substr(i, vend - i);
    while (!literal.empty() && std::isspace(static_cast<unsigned char>(
                                   literal.back())))
      literal.pop_back();
    row.add(key, std::move(literal));
    i = vend;
  }
  if (row.fields().empty()) return std::nullopt;
  return row;
}

/// The rows of a bench JSON written by write_rows (empty when the file is
/// missing or holds none).
inline std::vector<Row> read_rows(const std::string& path) {
  std::vector<Row> rows;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return rows;
  char line[1024];
  while (std::fgets(line, sizeof line, f))
    if (auto r = parse_row(line)) rows.push_back(std::move(*r));
  std::fclose(f);
  return rows;
}

enum class Better { kHigher, kLower };

/// An absolute floor on the fresh run alone: every row `applies` selects
/// must have `field` >= `min`, wherever the binary runs.
struct Floor {
  std::string what;
  std::function<bool(const Row&)> applies;
  std::string field;
  double min;
};

/// How a bench is gated against its committed baseline: rows match on
/// every `keys` field, and `metric` is compared as new/base (kHigher) or
/// base/new (kLower), so a ratio below 1 is always a regression.
struct Gate {
  std::vector<std::string> keys;
  std::string metric;
  Better better = Better::kHigher;
  std::vector<Floor> floors;
};

/// Compares the fresh `rows` against the baseline rows at `path`. Prints
/// one line per matched row and the worst ratio, then checks the floors.
/// Returns 1 when the baseline is missing or no row matches, 2 when the
/// worst ratio is below `fail_under` (> 0; <= 0 disables the ratio gate)
/// or a floor fails, else 0. Baseline rows whose metric is not positive
/// carry no ratio and are skipped.
inline int compare_rows(const std::vector<Row>& rows, const std::string& path,
                        const Gate& gate, double fail_under) {
  const auto base = read_rows(path);
  if (base.empty()) {
    std::fprintf(stderr, "no baseline rows in %s\n", path.c_str());
    return 1;
  }
  auto key_of = [&](const Row& r) {
    std::string k;
    for (const auto& name : gate.keys) {
      const std::string* v = r.literal(name);
      if (v == nullptr) return std::string();
      if (!k.empty()) k += ' ';
      k += *v;
    }
    return k;
  };
  std::printf("%-32s | %11s %11s | %7s\n", "row", "base", "new", "ratio");
  int matched = 0;
  double worst = 1e300;
  for (const auto& r : rows) {
    const std::string key = key_of(r);
    const Row* b = nullptr;
    for (const auto& cand : base)
      if (!key.empty() && key_of(cand) == key) b = &cand;
    if (b == nullptr || !(b->value(gate.metric) > 0)) continue;
    ++matched;
    const double bv = b->value(gate.metric), nv = r.value(gate.metric);
    const double ratio = gate.better == Better::kHigher ? nv / bv : bv / nv;
    worst = std::min(worst, ratio);
    std::string label;
    for (const auto& name : gate.keys) {
      if (!label.empty()) label += ' ';
      label += r.text(name);
    }
    std::printf("%-32s | %11.4f %11.4f | %6.2fx\n", label.c_str(), bv, nv,
                ratio);
  }
  if (matched == 0) {
    std::fprintf(stderr, "no rows matched the baseline schema\n");
    return 1;
  }
  std::printf("%d rows compared; worst ratio %.2fx\n", matched, worst);
  int rc = 0;
  if (fail_under > 0 && worst < fail_under) {
    std::fprintf(stderr, "worst ratio %.2fx below --fail-under=%.2f\n", worst,
                 fail_under);
    rc = 2;
  }
  for (const auto& fl : gate.floors) {
    double lowest = 1e300;
    for (const auto& r : rows) {
      if (!fl.applies(r)) continue;
      const double v = r.value(fl.field);
      lowest = std::min(lowest, v);
      if (!(v >= fl.min)) {
        std::fprintf(stderr, "%s: %s %.2fx below its %.2fx floor\n",
                     r.json().c_str(), fl.what.c_str(), v, fl.min);
        rc = 2;
      }
    }
    std::printf("worst %s in this run %.2fx (floor %.2f)\n", fl.what.c_str(),
                lowest, fl.min);
  }
  return rc;
}

/// Value of a `--flag` / `--flag=VALUE` argument: nullopt when absent,
/// `dflt` when given bare. `--flag-other` does not match `--flag`.
inline std::optional<std::string> flag_value(int argc, char** argv,
                                             const std::string& flag,
                                             const std::string& dflt) {
  std::optional<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == flag)
      out = dflt;
    else if (a.rfind(flag + "=", 0) == 0)
      out = a.substr(flag.size() + 1);
  }
  return out;
}

/// --fail-under=X: the ratio below which a --compare run fails (0 = off).
inline double fail_under_arg(int argc, char** argv) {
  const auto v = flag_value(argc, argv, "--fail-under", "0");
  return v ? std::atof(v->c_str()) : 0.0;
}

/// Best-of-reps wall seconds of fn().
template <class F>
double time_best(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace tucker::bench
