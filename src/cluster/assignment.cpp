#include "cluster/assignment.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/expect.hpp"

namespace ones::cluster {

namespace {

/// Sorted-insert into an ascending vector (no duplicates expected).
template <typename T>
void insert_sorted(std::vector<T>& v, T value) {
  v.insert(std::lower_bound(v.begin(), v.end(), value), value);
}

/// Remove `value` from an ascending vector; it must be present.
template <typename T>
void erase_sorted(std::vector<T>& v, T value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  ONES_EXPECT_MSG(it != v.end() && *it == value, "index entry missing");
  v.erase(it);
}

}  // namespace

const char* to_string(SlotHealth h) {
  switch (h) {
    case SlotHealth::Healthy: return "healthy";
    case SlotHealth::Failed: return "failed";
    case SlotHealth::Reclaimed: return "reclaimed";
  }
  return "?";
}

Assignment::Assignment(int num_gpus) : slots_(static_cast<std::size_t>(num_gpus)) {
  ONES_EXPECT(num_gpus >= 0);
  idle_.resize(static_cast<std::size_t>(num_gpus));
  for (int g = 0; g < num_gpus; ++g) idle_[static_cast<std::size_t>(g)] = g;
}

const Assignment::JobStat* Assignment::find_stat(JobId job) const {
  const auto it = std::lower_bound(
      jobs_.begin(), jobs_.end(), job,
      [](const JobStat& s, JobId j) { return s.job < j; });
  if (it == jobs_.end() || it->job != job) return nullptr;
  return &*it;
}

Assignment::JobStat* Assignment::find_stat(JobId job) {
  return const_cast<JobStat*>(std::as_const(*this).find_stat(job));
}

void Assignment::order_insert(JobId job, GpuId front) {
  const auto at = std::lower_bound(fronts_.begin(), fronts_.end(), front) - fronts_.begin();
  order_.insert(order_.begin() + at, job);
  fronts_.insert(fronts_.begin() + at, front);
}

void Assignment::order_erase(JobId job) {
  const auto at = std::find(order_.begin(), order_.end(), job) - order_.begin();
  order_.erase(order_.begin() + at);
  fronts_.erase(fronts_.begin() + at);
}

void Assignment::attach(JobId job, GpuId gpu, int local_batch) {
  JobStat* stat = find_stat(job);
  const bool fresh = stat == nullptr;
  if (fresh) {
    const auto it = std::lower_bound(
        jobs_.begin(), jobs_.end(), job,
        [](const JobStat& s, JobId j) { return s.job < j; });
    stat = &*jobs_.insert(it, JobStat{job, 0, static_cast<int>(gpus_.size()), 0});
  }
  stat->batch += local_batch;
  // Only the last segment grows in place; any other moves to the end. Dead
  // entries are dropped first once they would push gpus_ past twice the
  // number of non-idle GPUs (an upper bound on the live entries).
  const auto count = static_cast<std::size_t>(stat->count);
  const auto is_last = [&] {
    return static_cast<std::size_t>(stat->begin) + count == gpus_.size();
  };
  if (gpus_.size() + (is_last() ? 1 : count + 1) > 2 * (slots_.size() - idle_.size())) {
    compact();
  }
  if (!is_last()) {
    const auto from = static_cast<std::size_t>(stat->begin);
    stat->begin = static_cast<int>(gpus_.size());
    gpus_.reserve(gpus_.size() + count + 1);  // no reallocation while copying
    for (std::size_t i = 0; i < count; ++i) gpus_.push_back(gpus_[from + i]);
  }
  // Append, then rotate into place: the segment stays ascending.
  gpus_.push_back(gpu);
  const auto first = gpus_.begin() + stat->begin;
  std::rotate(std::upper_bound(first, gpus_.end() - 1, gpu), gpus_.end() - 1, gpus_.end());
  ++stat->count;
  if (fresh) {
    order_insert(job, gpu);
  } else if (*first == gpu) {  // a new lowest GPU moves the job in order_
    order_erase(job);
    order_insert(job, gpu);
  }
}

void Assignment::detach(JobId job, GpuId gpu, int local_batch) {
  JobStat* stat = find_stat(job);
  ONES_EXPECT_MSG(stat != nullptr, "job index entry missing");
  const auto first = gpus_.begin() + stat->begin;
  const auto last = first + stat->count;
  const auto it = std::lower_bound(first, last, gpu);
  ONES_EXPECT_MSG(it != last && *it == gpu, "index entry missing");
  if (stat->count == 1) {
    drop_stat(stat);
    return;
  }
  const bool was_front = it == first;
  stat->batch -= local_batch;
  std::copy(it + 1, last, it);
  --stat->count;
  if (last == gpus_.end()) gpus_.pop_back();
  if (was_front) {
    order_erase(job);
    order_insert(job, *first);
  }
}

void Assignment::drop_stat(const JobStat* stat) {
  if (static_cast<std::size_t>(stat->begin + stat->count) == gpus_.size()) {
    gpus_.resize(static_cast<std::size_t>(stat->begin));
  }
  order_erase(stat->job);
  jobs_.erase(jobs_.begin() + (stat - jobs_.data()));
}

void Assignment::compact() {
  std::vector<GpuId> packed;
  packed.reserve(slots_.size());
  for (JobStat& s : jobs_) {
    const auto seg = segment(s);
    s.begin = static_cast<int>(packed.size());
    packed.insert(packed.end(), seg.begin(), seg.end());
  }
  gpus_ = std::move(packed);
}

void Assignment::place(GpuId gpu, JobId job, int local_batch) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  ONES_EXPECT_MSG(job != kInvalidJob, "cannot place the invalid job");
  ONES_EXPECT_MSG(local_batch >= 1, "a worker needs at least one sample per step");
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  ONES_EXPECT_MSG(s.healthy(), "cannot place a worker on a down GPU");
  if (s.occupied()) {
    if (s.job == job) {
      // Same job, possibly a new batch: only the batch sum moves.
      find_stat(job)->batch += local_batch - s.local_batch;
      s.local_batch = local_batch;
      return;
    }
    detach(s.job, gpu, s.local_batch);
  } else {
    erase_sorted(idle_, gpu);
  }
  s = Slot{job, local_batch, s.health};
  attach(job, gpu, local_batch);
}

void Assignment::clear(GpuId gpu) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  if (!s.occupied()) return;
  detach(s.job, gpu, s.local_batch);
  if (s.healthy()) insert_sorted(idle_, gpu);
  s = Slot{kInvalidJob, 0, s.health};
}

int Assignment::evict(JobId job) {
  const JobStat* stat = find_stat(job);
  if (stat == nullptr) return 0;
  const int freed = stat->count;
  const std::size_t old_idle = idle_.size();
  for (const GpuId g : segment(*stat)) {
    Slot& s = slots_[static_cast<std::size_t>(g)];
    if (s.healthy()) idle_.push_back(g);
    s = Slot{kInvalidJob, 0, s.health};
  }
  // Both halves are ascending: one merge instead of c_j binary inserts.
  std::inplace_merge(idle_.begin(),
                     idle_.begin() + static_cast<std::ptrdiff_t>(old_idle),
                     idle_.end());
  drop_stat(stat);
  return freed;
}

void Assignment::set_health(GpuId gpu, SlotHealth health) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  Slot& s = slots_[static_cast<std::size_t>(gpu)];
  if (s.health == health) return;
  const bool was_healthy = s.healthy();
  s.health = health;
  if (was_healthy && !s.healthy()) {
    insert_sorted(down_, gpu);
    if (!s.occupied()) erase_sorted(idle_, gpu);
  } else if (!was_healthy && s.healthy()) {
    erase_sorted(down_, gpu);
    if (!s.occupied()) insert_sorted(idle_, gpu);
  }
  // Failed <-> Reclaimed: membership in both indexes is unchanged.
}

SlotHealth Assignment::health(GpuId gpu) const {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  return slots_[static_cast<std::size_t>(gpu)].health;
}

int Assignment::healthy_count() const {
  return num_gpus() - static_cast<int>(down_.size());
}

void Assignment::sync_health(const Assignment& from) {
  ONES_EXPECT(num_gpus() == from.num_gpus());
  // Only GPUs down on either side can differ; walk the union of both down
  // lists instead of all G slots.
  std::vector<GpuId> touched;
  touched.reserve(down_.size() + from.down_.size());
  std::set_union(down_.begin(), down_.end(), from.down_.begin(),
                 from.down_.end(), std::back_inserter(touched));
  for (const GpuId g : touched) {
    const SlotHealth target = from.slots_[static_cast<std::size_t>(g)].health;
    const Slot& s = slots_[static_cast<std::size_t>(g)];
    if (s.health == target) continue;
    if (target != SlotHealth::Healthy && s.occupied()) clear(g);
    set_health(g, target);
  }
}

Assignment Assignment::empty_like(const Assignment& a) {
  Assignment out(a.num_gpus());
  for (const GpuId g : a.down_) out.set_health(g, a.health(g));
  return out;
}

Assignment Assignment::from_slots(std::vector<Slot> slots) {
  for (const Slot& s : slots) {
    if (s.occupied()) {
      ONES_EXPECT_MSG(s.local_batch >= 1, "a worker needs at least one sample per step");
      ONES_EXPECT_MSG(s.healthy(), "cannot place a worker on a down GPU");
    } else {
      ONES_EXPECT_MSG(s.local_batch == 0, "idle slot carries a batch size");
    }
  }
  Assignment out;
  Indexes idx = index_slots(slots);
  out.slots_ = std::move(slots);
  out.idle_ = std::move(idx.idle);
  out.down_ = std::move(idx.down);
  out.jobs_ = std::move(idx.jobs);
  out.gpus_ = std::move(idx.gpus);
  out.order_ = std::move(idx.order);
  out.fronts_ = std::move(idx.fronts);
  return out;
}

void Assignment::set_local_batch(GpuId gpu, int local_batch) {
  ONES_EXPECT(gpu >= 0 && gpu < num_gpus());
  ONES_EXPECT(local_batch >= 1);
  auto& s = slots_[static_cast<std::size_t>(gpu)];
  ONES_EXPECT_MSG(s.occupied(), "cannot set a batch size on an idle GPU");
  find_stat(s.job)->batch += local_batch - s.local_batch;
  s.local_batch = local_batch;
}

int Assignment::global_batch(JobId job) const {
  const JobStat* stat = find_stat(job);
  return stat != nullptr ? stat->batch : 0;
}

int Assignment::gpu_count(JobId job) const {
  const JobStat* stat = find_stat(job);
  return stat != nullptr ? stat->count : 0;
}

std::vector<GpuId> Assignment::gpus_of(JobId job) const {
  const auto gpus = worker_gpus(job);
  return {gpus.begin(), gpus.end()};
}

std::span<const GpuId> Assignment::worker_gpus(JobId job) const {
  const JobStat* stat = find_stat(job);
  return stat != nullptr ? segment(*stat) : std::span<const GpuId>{};
}

JobPlacement Assignment::placement(JobId job) const {
  const JobStat* stat = find_stat(job);
  if (stat == nullptr) return {};
  const auto gpus = segment(*stat);
  JobPlacement p{.workers = stat->count,
                 .global_batch = stat->batch,
                 .max_local_batch = 0,
                 .first_gpu = gpus.front(),
                 .last_gpu = gpus.back()};
  for (const GpuId g : gpus) {
    p.max_local_batch =
        std::max(p.max_local_batch, slots_[static_cast<std::size_t>(g)].local_batch);
  }
  return p;
}

int Assignment::idle_count() const { return static_cast<int>(idle_.size()); }

bool Assignment::same_placement(const Assignment& other, JobId job) const {
  const JobStat* a = find_stat(job);
  const JobStat* b = other.find_stat(job);
  if ((a == nullptr) != (b == nullptr)) return false;
  if (a == nullptr) return true;
  const auto gpus = segment(*a);
  if (!std::ranges::equal(gpus, other.segment(*b))) return false;
  for (const GpuId g : gpus) {
    if (slots_[static_cast<std::size_t>(g)].local_batch !=
        other.slots_[static_cast<std::size_t>(g)].local_batch) {
      return false;
    }
  }
  return true;
}

std::uint64_t Assignment::hash() const {
  // FNV-1a over 64-bit words rather than bytes: one multiply per word.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Slot& s : slots_) {
    h = (h ^ static_cast<std::uint64_t>(s.job)) * 0x100000001b3ULL;
    h = (h ^ (static_cast<std::uint64_t>(s.local_batch) << 2 |
              static_cast<std::uint64_t>(s.health))) * 0x100000001b3ULL;
  }
  return h;
}

std::string Assignment::to_string() const {
  std::ostringstream os;
  os << "[";
  for (int g = 0; g < num_gpus(); ++g) {
    if (g > 0) os << " ";
    const auto& s = slots_[static_cast<std::size_t>(g)];
    if (s.occupied()) {
      os << s.job << ":" << s.local_batch;
    } else {
      os << "-";
    }
    if (s.health == SlotHealth::Failed) os << "!";
    if (s.health == SlotHealth::Reclaimed) os << "~";
  }
  os << "]";
  return os.str();
}

void Assignment::check_invariants() const {
  for (const auto& s : slots_) {
    if (s.occupied()) {
      ONES_EXPECT_MSG(s.local_batch >= 1, "occupied slot with local batch < 1");
    } else {
      ONES_EXPECT_MSG(s.local_batch == 0, "idle slot carries a batch size");
    }
  }
}

Assignment::Indexes Assignment::index_slots(const std::vector<Slot>& slots) {
  Indexes out;
  std::vector<std::pair<JobId, GpuId>> workers;  // (job, GPU) of every occupied slot
  workers.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const GpuId g = static_cast<GpuId>(i);
    const Slot& s = slots[i];
    if (!s.healthy()) out.down.push_back(g);
    if (s.occupied()) {
      workers.emplace_back(s.job, g);
    } else if (s.healthy()) {
      out.idle.push_back(g);
    }
  }
  // Sorting groups each job's GPUs, ascending, with the jobs in JobId order.
  std::sort(workers.begin(), workers.end());
  out.gpus.reserve(workers.size());
  for (const auto& [job, g] : workers) {
    if (out.jobs.empty() || out.jobs.back().job != job) {
      out.jobs.push_back(JobStat{job, 0, static_cast<int>(out.gpus.size()), 0});
    }
    JobStat& stat = out.jobs.back();
    stat.batch += slots[static_cast<std::size_t>(g)].local_batch;
    ++stat.count;
    out.gpus.push_back(g);
  }
  // First-occurrence order: the jobs by their lowest GPU.
  std::vector<std::pair<GpuId, JobId>> by_front;
  by_front.reserve(out.jobs.size());
  for (const JobStat& stat : out.jobs) {
    by_front.emplace_back(out.gpus[static_cast<std::size_t>(stat.begin)], stat.job);
  }
  std::sort(by_front.begin(), by_front.end());
  out.order.reserve(by_front.size());
  out.fronts.reserve(by_front.size());
  for (const auto& [front, job] : by_front) {
    out.fronts.push_back(front);
    out.order.push_back(job);
  }
  return out;
}

void Assignment::audit_indexes() const {
  const Indexes fresh = index_slots(slots_);
  ONES_EXPECT_MSG(fresh.idle == idle_, "idle-GPU index diverged from the slot array");
  ONES_EXPECT_MSG(fresh.down == down_, "down-GPU index diverged from the slot array");
  ONES_EXPECT_MSG(fresh.jobs.size() == jobs_.size(),
                  "job index has the wrong number of entries");
  ONES_EXPECT_MSG(gpus_.size() <= 2 * slots_.size(),
                  "job GPU lists hold too many dead entries");
  for (std::size_t i = 0; i < fresh.jobs.size(); ++i) {
    const JobStat& want = fresh.jobs[i];
    const JobStat& have = jobs_[i];
    ONES_EXPECT_MSG(want.job == have.job, "job index diverged: wrong job");
    ONES_EXPECT_MSG(want.batch == have.batch, "job index diverged: stale global batch");
    ONES_EXPECT_MSG(have.begin >= 0 && have.count >= 0 &&
                        static_cast<std::size_t>(have.begin + have.count) <= gpus_.size(),
                    "job index diverged: GPU list out of bounds");
    ONES_EXPECT_MSG(std::ranges::equal(segment(have), std::span<const GpuId>(fresh.gpus).subspan(
                                                          static_cast<std::size_t>(want.begin),
                                                          static_cast<std::size_t>(want.count))),
                    "job index diverged: stale GPU list");
  }
  ONES_EXPECT_MSG(fresh.order == order_ && fresh.fronts == fronts_,
                  "first-occurrence job order diverged");
}

AssignmentDelta diff(const Assignment& prev, const Assignment& next) {
  ONES_EXPECT(prev.num_gpus() == next.num_gpus());
  // (lowest GPU, job) per list, so a sort restores first-occurrence order.
  std::vector<std::pair<GpuId, JobId>> started, stopped, reconfigured;
  const auto moved = [&](const PlacedJob& a, const PlacedJob& b) {
    if (a.global_batch != b.global_batch || !std::ranges::equal(a.gpus, b.gpus)) return true;
    for (const GpuId g : a.gpus) {
      if (prev.slot(g).local_batch != next.slot(g).local_batch) return true;
    }
    return false;
  };
  const int prev_jobs = prev.placed_count();
  const int next_jobs = next.placed_count();
  int i = 0;
  int k = 0;
  while (i < prev_jobs || k < next_jobs) {
    if (k == next_jobs || (i < prev_jobs && prev.placed(i).job < next.placed(k).job)) {
      const PlacedJob a = prev.placed(i++);
      stopped.emplace_back(a.gpus.front(), a.job);
    } else if (i == prev_jobs || next.placed(k).job < prev.placed(i).job) {
      const PlacedJob b = next.placed(k++);
      started.emplace_back(b.gpus.front(), b.job);
    } else {
      const PlacedJob a = prev.placed(i++);
      const PlacedJob b = next.placed(k++);
      if (moved(a, b)) reconfigured.emplace_back(b.gpus.front(), b.job);
    }
  }
  const auto by_front = [](std::vector<std::pair<GpuId, JobId>>& list) {
    std::sort(list.begin(), list.end());
    std::vector<JobId> jobs;
    jobs.reserve(list.size());
    for (const auto& entry : list) jobs.push_back(entry.second);
    return jobs;
  };
  return {.started = by_front(started),
          .stopped = by_front(stopped),
          .reconfigured = by_front(reconfigured)};
}

}  // namespace ones::cluster
