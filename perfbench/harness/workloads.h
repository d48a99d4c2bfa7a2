// Phase entry points of the benchmark harness. perfbench/run.py runs each
// phase as its own process and prints the workload's result.
#pragma once

#include <vector>

#include "common.h"

namespace perfbench {

// build-paper: the paper world written as trace files, and what `acbm fit`
// and `acbm pack` wrote checked.
int setup_build(const Args& args);
int check_build(const Args& args);


// ingest-replay: the base dataset and hourly snapshots, and the published
// model checked.
int setup_ingest(const Args& args);
int check_ingest(const Args& args);

// Every workload's traced run: the fit layers on the workload's data; the
// serving layers, by an open-loop Poisson generator over a Zipf target mix
// against a running `acbm serve`; and the ingest layers on its replayed
// directory or on a directory initialised on its world.
int trace_fit(const Args& args);
int run_load(const Args& args);
int trace_ingest(const Args& args);

/// The fit's stages called one after another, each timed on its own: the
/// work the parallel fit spreads over the pool. Run it at one thread.
struct StagePass {
  double extract_ms = 0.0;  // Cold FeatureCache over every family and target.
  std::vector<double> temporal_ms;  // fit_family_temporal, per family.
  std::vector<double> spatial_ms;   // fit_target_spatial, per target.
  double assemble_ms = 0.0;         // assemble_rows.
  double tree_ms = 0.0;             // ModelTree::fit, hour and day trees.
};
[[nodiscard]] StagePass stage_pass(const trace::Dataset& dataset,
                                   const net::IpToAsnMap& ip_map);

// The output checks of checks.h fed known-bad values.
int run_selftest(const Args& args);

}  // namespace perfbench
