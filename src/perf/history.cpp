#include "perf/history.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "support/file.h"
#include "support/json.h"

namespace hicsync::perf {

namespace fs = std::filesystem;
using support::JsonValue;
using support::JsonWriter;

const double* BenchRun::metric(std::string_view key) const {
  auto it = metrics.find(std::string(key));
  return it == metrics.end() ? nullptr : &it->second;
}

bool BenchRun::flag(std::string_view key) const {
  const double* v = metric(key);
  return v != nullptr && *v != 0.0;
}

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// google-benchmark times carry a unit; normalize to nanoseconds.
double to_ns(double value, const std::string& unit) {
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  return value;  // "ns" or absent
}

bool parse_gbench(const JsonValue& doc, BenchRun* out, std::string* error) {
  const JsonValue* benches = doc.find("benchmarks");
  if (benches == nullptr || !benches->is_array()) {
    return set_error(error, "gbench report without benchmarks array");
  }
  for (const JsonValue& b : benches->elements) {
    const JsonValue* name = b.find("name");
    if (name == nullptr || !name->is_string()) continue;
    // Skip aggregate rows (mean/median/stddev of repetitions) — the raw
    // iterations are what the MAD baseline wants.
    if (const JsonValue* rt = b.find("run_type");
        rt != nullptr && rt->is_string() && rt->string_value != "iteration") {
      continue;
    }
    std::string unit = "ns";
    if (const JsonValue* u = b.find("time_unit");
        u != nullptr && u->is_string()) {
      unit = u->string_value;
    }
    const std::string prefix = name->string_value + ".";
    if (const JsonValue* v = b.find("real_time");
        v != nullptr && v->is_number()) {
      out->metrics[prefix + "real_time_ns"] = to_ns(v->number_value, unit);
    }
    if (const JsonValue* v = b.find("cpu_time");
        v != nullptr && v->is_number()) {
      out->metrics[prefix + "cpu_time_ns"] = to_ns(v->number_value, unit);
    }
    if (const JsonValue* v = b.find("iterations");
        v != nullptr && v->is_number()) {
      out->metrics[prefix + "iterations"] = v->number_value;
    }
  }
  if (out->metrics.empty()) {
    return set_error(error, "gbench report with no iteration entries");
  }
  return true;
}

bool parse_flat(const JsonValue& doc, BenchRun* out, std::string* error) {
  for (const auto& [key, value] : doc.members) {
    if (key == "bench" && value.is_string()) {
      out->bench = value.string_value;
    } else if (value.is_number()) {
      out->metrics[key] = value.number_value;
    } else if (value.is_bool()) {
      out->metrics[key] = value.bool_value ? 1.0 : 0.0;
    } else if (value.is_string()) {
      out->labels[key] = value.string_value;
    }
    // nested values don't occur in JsonBenchReport output; ignore.
  }
  if (out->bench.empty()) {
    return set_error(error, "flat report without a \"bench\" key");
  }
  return true;
}

}  // namespace

bool parse_bench_json(std::string_view json_text, BenchRun* out,
                      std::string* error) {
  *out = BenchRun();
  JsonValue doc;
  std::string parse_error;
  if (!support::parse_json(json_text, &doc, &parse_error)) {
    return set_error(error, "bad JSON: " + parse_error);
  }
  if (!doc.is_object()) return set_error(error, "top level is not an object");
  if (doc.find("benchmarks") != nullptr) return parse_gbench(doc, out, error);
  return parse_flat(doc, out, error);
}

std::string HistoryStore::to_jsonl(const BenchRun& run) {
  JsonWriter w(/*indent=*/0);
  w.begin_object()
      .key("schema")
      .value(run.schema)
      .key("bench")
      .value(run.bench)
      .key("run_id")
      .value(run.run_id)
      .key("timestamp")
      .value(run.timestamp);
  w.key("metrics").begin_object();
  for (const auto& [key, value] : run.metrics) w.key(key).value(value);
  w.end_object();
  w.key("labels").begin_object();
  for (const auto& [key, value] : run.labels) w.key(key).value(value);
  w.end_object();
  w.end_object();
  return w.str();
}

bool HistoryStore::from_jsonl(std::string_view line, BenchRun* out,
                              std::string* error) {
  *out = BenchRun();
  JsonValue doc;
  std::string parse_error;
  if (!support::parse_json(line, &doc, &parse_error)) {
    return set_error(error, "bad JSONL line: " + parse_error);
  }
  if (!doc.is_object()) return set_error(error, "JSONL line is not an object");
  if (const JsonValue* v = doc.find("schema"); v != nullptr && v->is_number()) {
    out->schema = static_cast<int>(v->number_value);
  }
  if (const JsonValue* v = doc.find("bench"); v != nullptr && v->is_string()) {
    out->bench = v->string_value;
  }
  if (const JsonValue* v = doc.find("run_id"); v != nullptr && v->is_string()) {
    out->run_id = v->string_value;
  }
  if (const JsonValue* v = doc.find("timestamp");
      v != nullptr && v->is_string()) {
    out->timestamp = v->string_value;
  }
  if (const JsonValue* m = doc.find("metrics");
      m != nullptr && m->is_object()) {
    for (const auto& [key, value] : m->members) {
      if (value.is_number()) out->metrics[key] = value.number_value;
    }
  }
  if (const JsonValue* l = doc.find("labels"); l != nullptr && l->is_object()) {
    for (const auto& [key, value] : l->members) {
      if (value.is_string()) out->labels[key] = value.string_value;
    }
  }
  if (out->bench.empty()) return set_error(error, "record without bench name");
  return true;
}

bool HistoryStore::append(const BenchRun& run, std::string* error) {
  if (run.bench.empty()) {
    return error != nullptr ? (*error = "run without bench name", false)
                            : false;
  }
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + root_;
    return false;
  }
  const std::string path = root_ + "/" + run.bench + ".jsonl";
  std::ofstream out(path, std::ios::app);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  out << to_jsonl(run) << "\n";
  return static_cast<bool>(out);
}

std::vector<BenchRun> HistoryStore::load(const std::string& bench,
                                         std::string* error) const {
  std::vector<BenchRun> runs;
  const std::string path = root_ + "/" + bench + ".jsonl";
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "no history at " + path;
    return runs;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    BenchRun run;
    if (from_jsonl(line, &run)) runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<std::string> HistoryStore::benches() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".jsonl") names.push_back(p.stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

int HistoryStore::ingest_directory(const std::string& dir,
                                   const std::string& run_id,
                                   const std::string& timestamp,
                                   std::string* error) {
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    if (error != nullptr) *error = "cannot read " + dir;
    return -1;
  }
  std::sort(files.begin(), files.end());
  int ingested = 0;
  for (const fs::path& file : files) {
    std::string text;
    (void)support::read_file(file, &text);  // unreadable parses as empty
    BenchRun run;
    std::string parse_error;
    if (!parse_bench_json(text, &run, &parse_error)) {
      if (error != nullptr) {
        *error = file.filename().string() + ": " + parse_error;
      }
      return -1;
    }
    if (run.bench.empty()) {
      // gbench reports carry no bench name; derive from the file name.
      std::string stem = file.stem().string();  // BENCH_<name>
      run.bench = stem.substr(std::string("BENCH_").size());
    }
    run.run_id = run_id;
    run.timestamp = timestamp;
    if (!append(run, error)) return -1;
    ++ingested;
  }
  return ingested;
}

}  // namespace hicsync::perf
