#include "core/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace ones::core {

AnnealingScheduler::AnnealingScheduler(const AnnealingConfig& config)
    : config_(config),
      loop_(config.policy, config.predictor, config.use_predictor),
      toolbox_(config.operators),
      rng_(config.operators.seed ^ 0x5AD0C0DEULL),
      temperature_(config.initial_temperature) {}

std::optional<cluster::Assignment> AnnealingScheduler::on_event(
    const sched::ClusterState& state, const sched::SchedulerEvent& event) {
  const EvolutionContext ctx = loop_.begin(state, event);

  // Seed the walk from the live schedule, synchronized with reality.
  cluster::Assignment walker = *state.current;
  toolbox_.repair(walker, ctx);
  toolbox_.refresh(walker, ctx);

  const std::vector<double> rho = toolbox_.mean_rho(ctx);
  double walker_score = toolbox_.score(walker, ctx, rho);
  cluster::Assignment best = walker;
  double best_score = walker_score;

  for (int i = 0; i < config_.proposals_per_event; ++i) {
    cluster::Assignment proposal = walker;
    toolbox_.mutate(proposal, ctx);
    toolbox_.repair(proposal, ctx);
    if (config_.operators.use_reorder) proposal = Evolution::reorder(proposal);
    const double score = toolbox_.score(proposal, ctx, rho);
    ++proposals_;

    const double delta = score - walker_score;
    if (delta <= 0.0 || rng_.uniform() < std::exp(-delta / temperature_)) {
      walker = std::move(proposal);
      walker_score = score;
      ++accepted_;
      if (walker_score < best_score) {
        best_score = walker_score;
        best = walker;
      }
    }
    temperature_ = std::max(config_.min_temperature, temperature_ * config_.cooling);
  }

  if (!loop_.ready(state, event)) return std::nullopt;
  return loop_.commit(state, std::move(best));
}

}  // namespace ones::core
