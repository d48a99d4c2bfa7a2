// Scenario-generation perf harness: times `build_world` for every scenario
// in the adversary catalog (SCENARIOS.md) at millions-of-attacks scale and
// reports attacks/sec as ops_per_sec (scripts/bench.sh captures the
// report into results/BENCH_generate.json; bench_util.h has the output
// contract). `--tiny` doubles as the `trace`-labeled sanitizer sweep. The
// checksum is an FNV-1a hash over the generated trace, so a
// nondeterministic generator (the catalog's cardinal sin) fails the run
// right here.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace/scenario.h"
#include "trace/world.h"

namespace {

using acbm::bench::BenchConfig;
using acbm::bench::BenchResult;
using acbm::bench::run_bench;

constexpr const char* kSuite = "generate";

/// FNV-1a over every semantically meaningful attack field (same shape as
/// the scenario thread-invariance test's hash); folded to 32 bits so the
/// double-typed checksum stays exact.
double dataset_checksum(const acbm::trace::Dataset& ds) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const acbm::trace::Attack& a : ds.attacks()) {
    mix(a.id);
    mix(static_cast<std::uint64_t>(a.start));
    std::uint64_t duration_bits;
    std::memcpy(&duration_bits, &a.duration_s, sizeof duration_bits);
    mix(duration_bits);
    mix(a.target_ip.value);
    mix(a.target_asn);
    mix(a.family);
    mix(a.bots.size());
  }
  return static_cast<double>((h >> 32) ^ (h & 0xffffffffull));
}

/// The bench world: the same tuning the thread-invariance test uses to
/// cross one million attacks cheaply (short window, high rate, small
/// magnitudes, snapshots off), so attacks/sec here describes exactly the
/// workload the determinism contract is verified on.
acbm::trace::WorldOptions bench_world_options(const char* scenario_name,
                                              bool tiny) {
  acbm::trace::WorldOptions opts = acbm::trace::small_world_options(7);
  (void)acbm::trace::apply_scenario(opts, scenario_name);
  opts.generator.days = tiny ? 6 : 48;
  opts.generator.activity_scale = tiny ? 2.0 : 130.0;
  opts.generator.emit_snapshots = false;
  opts.generator.pool_override = 2000;
  for (acbm::trace::FamilyProfile& profile : opts.generator.families) {
    profile.median_bots = 4.0;
    profile.bots_sigma = 0.3;
  }
  return opts;
}

BenchResult bench_scenario(const char* scenario_name,
                           const BenchConfig& config) {
  const acbm::trace::WorldOptions opts =
      bench_world_options(scenario_name, config.tiny);
  std::size_t attacks = 0;
  BenchResult result = run_bench(
      kSuite, std::string("generate_") + scenario_name, config, [&]() {
        const acbm::trace::World world = acbm::trace::build_world(opts);
        attacks = world.dataset.size();
        return dataset_checksum(world.dataset);
      });
  result.ops = static_cast<double>(attacks);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  return acbm::bench::bench_main(
      argc, argv, kSuite, [](const BenchConfig& config) {
        std::vector<BenchResult> results;
        for (const acbm::trace::Scenario& scenario :
             acbm::trace::scenario_catalog()) {
          results.push_back(bench_scenario(scenario.name, config));
        }
        return results;
      });
}
