// Cluster-wide schedule: the mapping S : J x C -> {b_j^i} from the paper
// (Eq. 1). One slot per GPU holds the job running there and its local batch
// size; a job's global batch size B_j and GPU count c_j follow from Eq. 2.
//
// This type doubles as the *genome* of the evolutionary search (Figure 1):
// the refresh / crossover / mutation / reorder operators all manipulate
// Assignments directly.
//
// The per-GPU slot array stays the source of truth, but every derived view
// (idle GPUs, per-job GPU lists, global batches, first-occurrence job order)
// is answered from indexes maintained incrementally by the mutators
// (DESIGN.md §12). The evolutionary search calls idle_gpus / worker_gpus /
// global_batch inside its per-candidate loops, so O(G) rescans there are
// what made 10k-GPU clusters infeasible. The indexes are flat vectors — no
// unordered containers, so iteration order is deterministic by construction
// (tools/ones_lint R2) — and copying an Assignment copies a fixed number of
// them, whatever the number of jobs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/ids.hpp"

namespace ones::cluster {

/// Health of a GPU slot (DESIGN.md §13). Only Healthy GPUs are placeable;
/// Failed covers hardware faults and node crashes, Reclaimed covers spot
/// capacity taken back by the provider. The distinction is cosmetic to the
/// schedulers (both mask the GPU) but kept for telemetry and traces.
enum class SlotHealth : std::uint8_t { Healthy = 0, Failed = 1, Reclaimed = 2 };

const char* to_string(SlotHealth h);

/// Per-GPU gene: which job runs on this device and with what local batch.
struct Slot {
  JobId job = kInvalidJob;
  int local_batch = 0;
  SlotHealth health = SlotHealth::Healthy;

  bool occupied() const { return job != kInvalidJob; }
  bool healthy() const { return health == SlotHealth::Healthy; }
  bool operator==(const Slot&) const = default;
};

/// One entry of the JobId-sorted job index, read in place: valid until the
/// next mutation of the Assignment it came from.
struct PlacedJob {
  JobId job = kInvalidJob;
  int global_batch = 0;          ///< B_j
  std::span<const GpuId> gpus;   ///< the job's GPUs, ascending (never empty)
};

/// One job's placement as the throughput model reads it (Eq. 2 plus the
/// straggler), summarised from the per-job index without copying it.
struct JobPlacement {
  int workers = 0;          ///< c_j; 0 when the job is not placed
  int global_batch = 0;     ///< B_j
  int max_local_batch = 0;  ///< largest b_j^i (the step's straggler)
  GpuId first_gpu = -1;     ///< lowest GPU of the job
  GpuId last_gpu = -1;      ///< highest GPU of the job
};

class Assignment {
 public:
  Assignment() = default;
  explicit Assignment(int num_gpus);

  int num_gpus() const { return static_cast<int>(slots_.size()); }
  const Slot& slot(GpuId gpu) const {
    ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
    return slots_[static_cast<std::size_t>(gpu)];
  }

  /// Place a worker of `job` on `gpu` with `local_batch` >= 1 samples.
  /// Overwrites whatever was there (preemption is the caller's policy call).
  void place(GpuId gpu, JobId job, int local_batch);

  /// Free a GPU.
  void clear(GpuId gpu);

  /// Remove all workers of a job; returns the number of GPUs freed.
  int evict(JobId job);

  /// Change the local batch on a GPU already running `job`.
  void set_local_batch(GpuId gpu, int local_batch);

  // ---- Health (DESIGN.md §13) ----

  /// Change a GPU's health. An unoccupied GPU leaves/rejoins the idle index
  /// as it sickens/heals; an occupied GPU keeps its worker — routing that
  /// worker into recovery is the driver's job (`place` refuses unhealthy
  /// GPUs, so the transient occupied-but-down state can only arise here).
  void set_health(GpuId gpu, SlotHealth health);

  SlotHealth health(GpuId gpu) const;
  /// Number of Healthy GPUs (occupied or not).
  int healthy_count() const;
  /// GPUs whose health is not Healthy, in ascending GPU order.
  const std::vector<GpuId>& unhealthy_gpus() const { return down_; }

  /// Copy `from`'s per-GPU health states onto this assignment (same size).
  /// A slot here that is occupied but newly unhealthy is cleared first, so
  /// the result never places a worker on a down GPU. Used to refresh cached
  /// genomes (the evolutionary population) against the live cluster.
  void sync_health(const Assignment& from);

  /// An empty (all-idle) assignment with the same size and health map as
  /// `a` — the health-aware replacement for `Assignment(a.num_gpus())` when
  /// building candidate schedules from scratch.
  static Assignment empty_like(const Assignment& a);

  /// The assignment whose slot array is `slots`, indexed in one pass (the
  /// bulk form of one `place` per GPU). Occupied slots must be healthy and
  /// carry a local batch >= 1; idle slots must carry none.
  static Assignment from_slots(std::vector<Slot> slots);

  // ---- Derived views (Eq. 2) ----

  /// Global batch size B_j (0 if the job is not placed).
  int global_batch(JobId job) const;
  /// Number of GPUs c_j.
  int gpu_count(JobId job) const;
  /// GPUs hosting workers of the job, in ascending GPU order.
  std::vector<GpuId> gpus_of(JobId job) const;
  /// gpus_of without the copy: a view into the job index, valid until the
  /// next mutation. Empty when the job is not placed.
  std::span<const GpuId> worker_gpus(JobId job) const;
  /// Worker count, global batch, straggler batch and GPU range of a job in
  /// O(c_j), with no allocation.
  JobPlacement placement(JobId job) const;
  /// Jobs with at least one worker, in first-occurrence order. A view into
  /// the maintained order, valid until the next mutation: copy it before a
  /// loop that places, clears or evicts.
  const std::vector<JobId>& running_jobs() const { return order_; }
  /// Healthy GPUs with no worker, ascending (down GPUs are never idle:
  /// schedulers read capacity exclusively through this index, which is what
  /// masks them). Valid until the next mutation.
  const std::vector<GpuId>& idle_gpus() const { return idle_; }
  int idle_count() const;
  /// Number of placed jobs, and the i-th of them in ascending JobId order
  /// (0 <= i < placed_count()): the job index itself, with no lookup or copy,
  /// for merge walks of two schedules in JobId order.
  int placed_count() const { return static_cast<int>(jobs_.size()); }
  PlacedJob placed(int i) const {
    const JobStat& stat = jobs_[static_cast<std::size_t>(i)];
    return {stat.job, stat.batch, segment(stat)};
  }

  /// True iff `job` occupies the same GPUs with the same local batches in
  /// both schedules (also true when it is absent from both). This is the
  /// per-job "did its configuration change" predicate the diff and the
  /// evolutionary switching surcharge are built on; O(c_j), not O(G).
  bool same_placement(const Assignment& other, JobId job) const;

  /// Two schedules are equal iff their slot arrays are equal; the indexes
  /// are a pure function of the slots, so they never need comparing.
  bool operator==(const Assignment& other) const { return slots_ == other.slots_; }

  /// A 64-bit hash of the slot array (job, local batch and health of every
  /// GPU): equal schedules hash equally, so a hash match is only a hint that
  /// operator== confirms.
  std::uint64_t hash() const;

  /// Compact human-readable rendering (for logs and examples):
  /// "[1:256 1:256 - 7:512]".
  std::string to_string() const;

  /// Validate Eq. 4 style invariants: every occupied slot has local_batch>=1,
  /// every idle slot has local_batch==0. Throws on violation.
  void check_invariants() const;

  /// Audit mode (DESIGN.md §12): recompute every incremental index from the
  /// slot array — idle and down GPUs, each job's batch and GPU list, and the
  /// first-occurrence order — and throw (std::logic_error via ONES_EXPECT) on
  /// any divergence. O(G log G); meant for tests and the driver's
  /// `audit_incremental` flag, not for hot paths.
  void audit_indexes() const;

 private:
  /// Per-job index entry: the job's GPUs are gpus_[begin, begin + count),
  /// ascending, and `batch` is the sum of their local batches (B_j).
  struct JobStat {
    JobId job = kInvalidJob;
    int batch = 0;
    int begin = 0;
    int count = 0;
  };

  /// The indexes recomputed from a slot array (audit and from_slots), with
  /// the GPU lists packed in JobId order.
  struct Indexes {
    std::vector<GpuId> idle;
    std::vector<GpuId> down;
    std::vector<JobStat> jobs;
    std::vector<GpuId> gpus;
    std::vector<JobId> order;
    std::vector<GpuId> fronts;
  };
  static Indexes index_slots(const std::vector<Slot>& slots);

  /// jobs_ position of `job`, or nullptr if it holds no GPU (binary search:
  /// jobs_ is sorted by JobId).
  const JobStat* find_stat(JobId job) const;
  JobStat* find_stat(JobId job);
  std::span<const GpuId> segment(const JobStat& stat) const {
    return {gpus_.data() + stat.begin, static_cast<std::size_t>(stat.count)};
  }
  /// Add `gpu` (running `local_batch`) to the job's stat, creating it if the
  /// job was not placed anywhere.
  void attach(JobId job, GpuId gpu, int local_batch);
  /// Remove `gpu` from the job's stat, dropping the stat when it empties.
  void detach(JobId job, GpuId gpu, int local_batch);
  /// Drop a placed job's stat, its GPU list and its order_ entry.
  void drop_stat(const JobStat* stat);
  /// Insert a placed job, whose lowest GPU is `front`, into order_.
  void order_insert(JobId job, GpuId front);
  /// Remove a job from order_.
  void order_erase(JobId job);
  /// Rewrite gpus_ without dead entries, segments in JobId order.
  void compact();

  std::vector<Slot> slots_;
  std::vector<GpuId> idle_;     ///< ascending; healthy AND unoccupied only
  std::vector<GpuId> down_;     ///< ascending; health != Healthy
  std::vector<JobStat> jobs_;   ///< ascending by JobId
  /// Every job's GPU list, one segment per JobStat. A segment that must grow
  /// and is not last moves to the end, leaving dead entries behind; compact()
  /// drops them before the vector would pass twice the non-idle GPU count,
  /// so each mutation costs O(c_j) amortized and the vector stays O(placed
  /// workers) long on a mostly idle cluster.
  std::vector<GpuId> gpus_;
  std::vector<JobId> order_;    ///< placed jobs, ascending by lowest GPU
  std::vector<GpuId> fronts_;   ///< lowest GPU of each order_ job (ascending)
};

/// Difference between two schedules, used to charge scaling costs only to
/// jobs whose configuration actually changed. Each list is in first-
/// occurrence order (ascending lowest GPU): `stopped` by the jobs' GPUs in
/// `prev`, the other two by their GPUs in `next`.
struct AssignmentDelta {
  std::vector<JobId> started;      ///< jobs with workers only in `next`
  std::vector<JobId> stopped;      ///< jobs with workers only in `prev`
  std::vector<JobId> reconfigured; ///< jobs whose worker set or batches changed
};

/// One merge walk of both job indexes in JobId order: O(R + the GPUs of the
/// jobs placed on both sides), no lookups, plus a sort of each (short) list.
AssignmentDelta diff(const Assignment& prev, const Assignment& next);

}  // namespace ones::cluster
