// Training convergence dynamics.
//
// Replaces real SGD with a state machine that reproduces the convergence
// facts the scheduler observes and depends on:
//
//  * Batch-size efficiency (gradient-noise-scale law): the raw samples needed
//    to converge grow as N(B) = N_min * (1 + B / B_crit). Equivalently, each
//    processed sample contributes progress eff(B) = (1 + B_ref/B_crit) /
//    (1 + B/B_crit), normalized to 1 at the reference batch. With a fixed
//    local batch of 256 and more GPUs, B grows and convergence slows —
//    strongly once B passes B_crit (Fig 3).
//
//  * Linear learning-rate scaling (Goyal et al.): ONES rescales the LR with
//    the batch, which is what keeps eff(B) ~ 1 below B_crit. The
//    `lr_linear_scaling=false` ablation removes that and charges an extra
//    B_ref/B penalty above the reference batch.
//
//  * Abrupt-rescaling disturbance: growing the batch by more than 2x in one
//    reconfiguration injects gradient/momentum noise — the training loss
//    spikes and takes several epochs to recover (Fig 13); growing gradually
//    (<= 2x per epoch) does not (Fig 14). Modelled as a `disturbance` level
//    that jumps on abrupt growth, adds to the observed loss, depresses
//    validation accuracy and divides progress, then decays geometrically.
//
//  * Termination rule (paper §4.1): a job ends once its validation accuracy
//    has stayed at/above target for `patience` consecutive epochs' worth of
//    samples (the paper uses 10 epochs).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "model/task.hpp"

namespace ones::model {

struct ConvergenceConfig {
  /// Consecutive epochs at/above target accuracy required to declare
  /// convergence (paper uses 10).
  int patience_epochs = 10;
  /// Disturbance added per *extra* doubling beyond the allowed 2x growth.
  double spike_per_extra_doubling = 0.6;
  /// Geometric decay of the disturbance per epoch.
  double disturbance_decay = 0.6;
  /// Progress divisor weight: progress /= (1 + slowdown * disturbance).
  double progress_slowdown = 2.0;
  /// How much one unit of disturbance depresses validation accuracy.
  double disturbance_accuracy_drop = 0.10;
  /// Std-dev of per-evaluation accuracy noise.
  double accuracy_noise = 0.003;
  /// Linear LR scaling with the batch (ONES always enables it; turning it
  /// off is an ablation).
  bool lr_linear_scaling = true;
};

class TrainDynamics {
 public:
  TrainDynamics(const TaskProfile& profile, std::int64_t dataset_size,
                const ConvergenceConfig& config, std::uint64_t seed);

  /// Per-sample progress efficiency at global batch B (1.0 at b_ref).
  double efficiency(int batch) const;

  /// Notify of a re-configuration of the global batch size. An increase by
  /// more than 2x in one jump raises the disturbance level.
  void on_batch_resize(int old_batch, int new_batch);

  struct EpochResult {
    double train_loss = 0.0;
    double val_accuracy = 0.0;
    bool converged = false;
  };

  /// Process `samples` raw samples at global batch `batch` (normally one
  /// epoch, but partial epochs — preemption mid-epoch — are fine).
  EpochResult advance(int batch, double samples);

  // ---- Observable state ----
  double samples_processed() const { return samples_processed_; }
  std::int64_t dataset_size() const { return dataset_size_; }
  double progress() const { return progress_; }
  /// progress / required; crosses 1.0 when target accuracy is reached.
  double progress_fraction() const { return progress_ / required_progress_; }
  double disturbance() const { return disturbance_; }
  double current_loss() const;
  double current_accuracy() const;  ///< noise-free accuracy at current state
  bool converged() const { return converged_; }

  // ---- Ground truth (oracle baselines, calibration, tests) ----
  /// Estimated raw samples still to process if trained at a fixed batch B
  /// from now on (including the patience tail).
  double oracle_remaining_samples(int batch) const;

 private:
  const TaskProfile& profile_;
  ConvergenceConfig config_;
  std::int64_t dataset_size_;
  double required_progress_;
  double accuracy_rate_;  ///< exponent chosen so accuracy(required) == target

  double samples_processed_ = 0.0;
  double progress_ = 0.0;
  double disturbance_ = 0.0;
  double above_target_samples_ = 0.0;
  bool converged_ = false;
  Rng rng_;
};

}  // namespace ones::model
