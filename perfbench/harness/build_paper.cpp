// build-paper: the analyst's batch path at the paper's data scale. Set-up
// writes the paper world as trace files; perfbench/run.py times the shipped
// `acbm fit` and `acbm pack` on them. The phase here checks what those
// commands wrote.
#include "checks.h"
#include "core/serving.h"
#include "stats/kernels.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = acbm::core;

}  // namespace

int setup_build(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const fs::path dir = args.str("dir");
  Checks checks;
  Report report;
  const auto t0 = Clock::now();
  const trace::World world = trace::build_world(paper_world(seed, args.has("tiny")));
  const double generate_s = seconds_since(t0);
  save_dataset(dir / "dataset.art", world.dataset);
  save_ipmap(dir / "ipmap.art", world.ip_map);
  report.metric("setup_s", seconds_since(t0));
  report.metric("generate_s", generate_s);
  report.metric("attacks", static_cast<double>(world.dataset.size()));
  report.context("targets", static_cast<double>(world.dataset.target_asns().size()));
  checks.op(world.dataset.size() > 0, "the generated trace is empty");
  if (world.dataset.size() > 0) write_world_facts(dir / "facts.txt", world.dataset);
  report.print(checks);
  return 0;
}

int check_build(const Args& args) {
  const fs::path dir = args.str("dir");
  const WorldFacts facts = read_world_facts(dir / "facts.txt");
  const Window window{facts.start, facts.end};
  Checks checks;
  Report report;
  const core::ServingModel served = core::ServingModel::map_file(dir / "model.armm");
  std::size_t targets = 0;
  bool plausible = true;
  for (const net::Asn asn : served.targets()) {
    std::optional<core::AttackPrediction> pred = served.predict(asn);
    if (!pred) continue;
    ++targets;
    if (inject(args, "corrupt-forecast") && targets == 1) pred->hour = 25.0;
    const std::string why = implausible_forecast(*pred, window);
    checks.expect(why.empty(), "AS" + std::to_string(asn) + ": " + why);
    plausible = plausible && why.empty();
  }
  checks.expect(targets > 0, "the packed model forecasts no target");
  checks.op(plausible && targets > 0, "the packed model is implausible");
  report.context("armm_hash", image_hash(served.image()));
  report.context("forecast_targets", static_cast<double>(targets));
  report.context("isa", acbm::stats::isa_name(acbm::stats::active_isa()));
  report.print(checks);
  return 0;
}

}  // namespace perfbench
