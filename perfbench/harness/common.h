// Shared plumbing of the benchmark harness: argument parsing, timing,
// order statistics, the one-line JSON report every phase prints, and the
// on-disk formats the phases hand to each other (the same framed artifacts
// `acbm generate` and `acbm fit` write).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/ip_space.h"
#include "trace/dataset.h"
#include "trace/world.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace net = acbm::net;
namespace trace = acbm::trace;
using Clock = std::chrono::steady_clock;

/// `--key value` pairs; a `--flag` followed by another option (or nothing)
/// maps to "1".
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key) const;  // Required.
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double num(const std::string& key) const;  // Required.

 private:
  std::map<std::string, std::string> values_;
};

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return 1000.0 * seconds_since(t0);
}

/// Linear-interpolated quantile (q in [0, 1]); NaN for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);

/// Operation and correctness accounting of one phase. A failed check fails
/// its operation; it never contributes a timing.
class Checks {
 public:
  /// Records one attempted operation; false marks it failed with `why`.
  void op(bool ok, const std::string& why);
  /// Records `attempted` operations of which `failed` failed with `why`.
  void ops(std::size_t attempted, std::size_t failed, const std::string& why);
  /// Records a correctness check that is not itself an operation.
  void expect(bool ok, const std::string& why);
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;  // First few reasons, for the log.
};

/// The single JSON line a phase prints on stdout: named metrics, free-form
/// context, and the operation/check accounting.
class Report {
 public:
  void metric(const std::string& name, double value);
  void context(const std::string& name, double value);
  void context(const std::string& name, const std::string& value);
  void print(const Checks& checks) const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;  // JSON values.
};

/// Fault injection for the benchmark's own tests: a named corruption is
/// applied to a value right before its correctness check.
[[nodiscard]] bool inject(const Args& args, const std::string& fault);

/// The world a workload generates from its seed. `tiny` shrinks every world
/// to smoke-test size.
[[nodiscard]] trace::WorldOptions paper_world(std::uint64_t seed, bool tiny);
[[nodiscard]] trace::WorldOptions small_world(std::uint64_t seed, bool tiny);

/// Writes the framed dataset / ipmap artifacts exactly as `acbm generate`.
void save_dataset(const fs::path& path, const trace::Dataset& dataset);
void save_ipmap(const fs::path& path, const net::IpToAsnMap& ip_map);
/// Reads them back exactly as `acbm fit` / `acbm evaluate` do.
[[nodiscard]] trace::Dataset load_dataset(const fs::path& path);
[[nodiscard]] net::IpToAsnMap load_ipmap(const fs::path& path);

/// The forecast window of a generated world (first and last attack start),
/// and its targets ranked by attack count, most attacked first (ties by
/// ASN), as set-up records them in a small key=value file.
struct WorldFacts {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::vector<net::Asn> ranked;
};
void write_world_facts(const fs::path& path, const trace::Dataset& dataset);
[[nodiscard]] WorldFacts read_world_facts(const fs::path& path);

}  // namespace perfbench
