#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/durable.h"

namespace perfbench {

namespace durable = acbm::core::durable;

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument " + arg);
    }
    const std::string key = arg.substr(2);
    const bool valued = i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    values_.insert_or_assign(key, valued ? std::string(argv[++i]) : std::string("1"));
  }
}

bool Args::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Args::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string Args::str(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Args::num(const std::string& key) const { return std::stod(str(key)); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void Checks::op(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) ++failed_;
  expect(ok, why);
}

void Checks::ops(std::size_t attempted, std::size_t failed,
                 const std::string& why) {
  attempted_ += attempted;
  failed_ += failed;
  expect(failed == 0, why);
}

void Checks::expect(bool ok, const std::string& why) {
  if (ok) return;
  if (failures_.size() < 8) failures_.push_back(why);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::context(const std::string& name, double value) {
  context_.emplace_back(name, json_number(value));
}

void Report::context(const std::string& name, const std::string& value) {
  context_.emplace_back(name, json_string(value));
}

void Report::print(const Checks& checks) const {
  std::string line = "{\"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    line += (i ? ", " : "") + json_string(metrics_[i].first) + ": " +
            json_number(metrics_[i].second);
  }
  line += "}, \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    line += (i ? ", " : "") + json_string(context_[i].first) + ": " +
            context_[i].second;
  }
  line += "}, \"attempted\": " + std::to_string(checks.attempted()) +
          ", \"failed\": " + std::to_string(checks.failed()) +
          ", \"correct\": " + (checks.correct() ? "true" : "false") +
          ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    line += (i ? ", " : "") + json_string(checks.failures()[i]);
  }
  line += "]}";
  std::cout << line << std::endl;
}

bool inject(const Args& args, const std::string& fault) {
  return args.str("inject", "") == fault;
}

trace::WorldOptions paper_world(std::uint64_t seed, bool tiny) {
  if (!tiny) return trace::paper_world_options(seed);
  trace::WorldOptions opts = trace::small_world_options(seed);
  opts.generator.days = 40;
  return opts;
}

trace::WorldOptions small_world(std::uint64_t seed, bool tiny) {
  trace::WorldOptions opts = trace::small_world_options(seed);
  if (tiny) opts.generator.days = 40;
  return opts;
}

void save_dataset(const fs::path& path, const trace::Dataset& dataset) {
  std::ostringstream text;
  dataset.save_csv(text);
  durable::save_artifact(path, "dataset", 1, text.str());
}

void save_ipmap(const fs::path& path, const net::IpToAsnMap& ip_map) {
  std::ostringstream text;
  ip_map.save(text);
  durable::save_artifact(path, "ipmap", 1, text.str());
}

trace::Dataset load_dataset(const fs::path& path) {
  const std::string bytes = durable::read_file(path);
  std::istringstream in(durable::unwrap(bytes, "dataset", 1, 1));
  return trace::Dataset::load_csv(in);
}

net::IpToAsnMap load_ipmap(const fs::path& path) {
  const std::string bytes = durable::read_file(path);
  std::istringstream in(durable::unwrap(bytes, "ipmap", 1, 1));
  return net::IpToAsnMap::load(in);
}

void write_world_facts(const fs::path& path, const trace::Dataset& dataset) {
  std::vector<std::pair<std::size_t, net::Asn>> counts;
  for (const net::Asn asn : dataset.target_asns()) {
    counts.emplace_back(dataset.attacks_on_asn(asn).size(), asn);
  }
  std::sort(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::string ranked;
  for (const auto& [count, asn] : counts) {
    if (!ranked.empty()) ranked += ';';
    ranked += std::to_string(asn);
  }
  durable::atomic_write_file(
      path, "start=" + std::to_string(dataset.window_start()) + "\nend=" +
                std::to_string(dataset.attacks().back().start) + "\nranked=" +
                ranked + "\n");
}

WorldFacts read_world_facts(const fs::path& path) {
  std::map<std::string, std::string> facts;
  std::istringstream lines(durable::read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) facts[line.substr(0, eq)] = line.substr(eq + 1);
  }
  WorldFacts world{std::stoll(facts.at("start")), std::stoll(facts.at("end")), {}};
  std::istringstream ranked(facts.at("ranked"));
  std::string asn;
  while (std::getline(ranked, asn, ';')) {
    world.ranked.push_back(static_cast<net::Asn>(std::stoul(asn)));
  }
  return world;
}

}  // namespace perfbench
