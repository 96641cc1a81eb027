// Ablation study of the design choices DESIGN.md calls out (not a paper
// figure — §3's design rationale, quantified):
//
//   * evolution operators: crossover / mutation / reorder off,
//   * the Beta-progress predictor off (rho fixed at 1/2),
//   * the elastic scaling mechanism replaced by checkpoint migration,
//   * LR linear scaling off in the substrate (the §3.3.2 motivation).
//
// Run on a 32-GPU cluster with a contended trace (smaller than Fig 15 to
// keep the 7-row sweep quick), through the src/exp orchestrator
// (--threads / --seeds / --no-cache). Every row is a typed OnesConfig (plus
// a sim config), so each one keys its own cache entries.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace ones;

int main(int argc, char** argv) {
  const auto opt = exp::parse_bench_cli(argc, argv);
  bench::BenchReport report("ablation_ones", opt);
  const auto config = bench::paper_sim_config(8);  // 32 GPUs
  const auto trace_config = bench::paper_trace_config(160, 9.0);
  std::printf("ONES ablations: %d jobs on 32 GPUs\n\n", trace_config.num_jobs);
  std::printf("%-16s %s\n", "variant", telemetry::format_summary_header().c_str());

  struct Row {
    const char* label;
    core::OnesConfig cfg;
    sched::SimulationConfig sim;
  };
  std::vector<Row> rows(7, Row{"full", {}, config});
  rows[1].label = "no-crossover";
  rows[1].cfg.evolution.use_crossover = false;
  rows[2].label = "no-mutation";
  rows[2].cfg.evolution.use_mutation = false;
  rows[3].label = "no-reorder";
  rows[3].cfg.evolution.use_reorder = false;
  rows[4].label = "no-predictor";
  rows[4].cfg.use_predictor = false;
  rows[5].label = "ckpt-mechanism";
  rows[5].cfg.mechanism = sched::ScalingMechanism::Checkpoint;
  // The substrate-side ablation: default ONES on a sim without LR scaling.
  rows[6].label = "no-lr-scaling";
  rows[6].sim.convergence.lr_linear_scaling = false;

  std::vector<exp::RunSpec> specs;
  for (const auto& row : rows) {
    bench::add_seed_block(specs, row.cfg, row.sim, trace_config, opt.seeds);
  }

  telemetry::MetricsRegistry bench_registry;
  exp::GridOptions grid = opt.grid;
  grid.registry = &bench_registry;
  if (!grid.prof_dir.empty()) grid.prof = &report.profile();

  const auto runs = exp::run_grid(specs, grid);
  const auto pooled = bench::pool_by_row(runs, rows.size(), opt.seeds);

  const double full_jct = pooled[0].summary.avg_jct;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-16s %s\n", rows[i].label,
                telemetry::format_summary_row(pooled[i].summary).c_str());
    report.metric(std::string("avg_jct.") + rows[i].label, pooled[i].summary.avg_jct);
  }

  std::printf("\nAverage-JCT change vs the full configuration:\n");
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double jct = pooled[i].summary.avg_jct;
    std::printf("  %-16s %+7.1f%%\n", rows[i].label, 100.0 * (jct - full_jct) / full_jct);
  }
  report.cache_stats_from(bench_registry);
  bench::print_cache_footer(bench_registry);
  return 0;
}
