// Differential test of the RM queue: SchedulerBase keeps its pending queue
// in dispatch order (sorted insert, re-sort only after repricing, scan-only
// passes); ReferenceScheduler is a frozen copy of the loop it replaced,
// which stable-sorted and rebuilt the whole queue in every pass. Both run
// the same seeded stream of submits, completions and repricings, and must
// start the same jobs at the same times in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"
#include "rms/scheduler.hpp"
#include "testing/property.hpp"
#include "util/rng.hpp"

namespace aequus::rms {
namespace {

/// Prices a job at time `now`; shared by both schedulers of one trial.
using PriceFn = std::function<double(const Job&, double now)>;

/// (system user, id, time, priority) of each start, or (system user, id,
/// start, end) of each completion.
using Record = std::tuple<std::string, JobId, double, double>;

/// Frozen per-pass stable sort and rebuild (the scheduler loop before its
/// queue kept dispatch order). Observability is left out; everything that
/// schedules simulator events is kept as it was.
class ReferenceScheduler {
 public:
  ReferenceScheduler(sim::Simulator& simulator, Cluster cluster, SchedulerConfig config,
                     PriceFn price)
      : simulator_(simulator),
        cluster_(std::move(cluster)),
        config_(config),
        price_(std::move(price)) {}

  JobId submit(Job job) {
    if (job.id == 0) job.id = next_id_++;
    else next_id_ = std::max(next_id_, job.id + 1);
    job.state = JobState::kPending;
    job.submit_time = simulator_.now();
    job.priority = price_(job, simulator_.now());
    const JobId id = job.id;
    pending_.push_back(std::move(job));
    ++stats_.submitted;
    schedule_pass();
    ensure_reprioritize_scheduled();
    return id;
  }

  void reschedule() {
    const double now = simulator_.now();
    for (auto& job : pending_) job.priority = price_(job, now);
    schedule_pass();
  }

  void add_completion_listener(std::function<void(const Job&)> listener) {
    listeners_.push_back(std::move(listener));
  }

  [[nodiscard]] const SchedulerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t pending_count() const noexcept { return pending_.size(); }
  [[nodiscard]] const std::vector<Record>& starts() const noexcept { return starts_; }

 private:
  void ensure_reprioritize_scheduled() {
    if (reprioritize_scheduled_ || pending_.empty()) return;
    reprioritize_scheduled_ = true;
    reprioritize_handle_ = simulator_.schedule_after(config_.reprioritize_interval, [this] {
      reprioritize_scheduled_ = false;
      reschedule();
      ensure_reprioritize_scheduled();
    });
  }

  void schedule_pass() {
    if (pending_.empty()) return;
    std::stable_sort(pending_.begin(), pending_.end(), [](const Job& a, const Job& b) {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
      return a.id < b.id;
    });
    std::deque<Job> still_pending;
    bool blocked = false;
    while (!pending_.empty()) {
      Job job = std::move(pending_.front());
      pending_.pop_front();
      if (blocked || !cluster_.can_allocate(job.cores)) {
        if (!config_.backfill) blocked = true;
        still_pending.push_back(std::move(job));
        continue;
      }
      start_job(std::move(job));
    }
    pending_ = std::move(still_pending);
    if (pending_.empty() && reprioritize_scheduled_) {
      reprioritize_handle_.cancel();
      reprioritize_scheduled_ = false;
    }
  }

  void start_job(Job job) {
    const double now = simulator_.now();
    cluster_.allocate(job.cores, now);
    job.state = JobState::kRunning;
    job.start_time = now;
    job.end_time = now + job.duration;
    ++stats_.started;
    stats_.total_wait_time += now - job.submit_time;
    starts_.emplace_back(job.system_user, job.id, now, job.priority);
    simulator_.schedule_at(job.end_time,
                           [this, job = std::move(job)]() mutable { finish_job(std::move(job)); });
  }

  void finish_job(Job job) {
    const double now = simulator_.now();
    cluster_.release(job.cores, now);
    job.state = JobState::kCompleted;
    job.end_time = now;
    ++stats_.completed;
    for (const auto& listener : listeners_) listener(job);
    schedule_pass();
  }

  sim::Simulator& simulator_;
  Cluster cluster_;
  SchedulerConfig config_;
  PriceFn price_;
  std::deque<Job> pending_;
  JobId next_id_ = 1;
  SchedulerStats stats_;
  std::vector<std::function<void(const Job&)>> listeners_;
  std::vector<Record> starts_;
  bool reprioritize_scheduled_ = false;
  sim::EventHandle reprioritize_handle_;
};

/// The scheduler under test, priced by the same function. Starts are read
/// back from its scheduler-decision trace events.
class SortedQueueScheduler final : public SchedulerBase {
 public:
  SortedQueueScheduler(sim::Simulator& simulator, Cluster cluster, SchedulerConfig config,
                       PriceFn price)
      : SchedulerBase(simulator, std::move(cluster), config), price_(std::move(price)) {
    tracer_.enable();
    attach_observability(obs::Observability{nullptr, &tracer_}, "site");
  }

  [[nodiscard]] std::vector<Record> starts() const {
    std::vector<Record> out;
    for (const obs::TraceEvent& event : tracer_.events()) {
      if (event.kind != obs::EventKind::kSchedulerDecision) continue;
      out.emplace_back(event.detail, event.id, event.time, event.value);
    }
    return out;
  }

 protected:
  double compute_priority(const PriorityContext& context) override {
    return price_(context.job, context.now);
  }

 private:
  PriceFn price_;
  obs::Tracer tracer_;
};

/// One scripted operation, scheduled at `at` on a trial's simulator.
struct Op {
  enum Kind { kSubmit, kReprice } kind = kSubmit;
  double at = 0.0;
  std::string user;
  double duration = 0.0;  ///< kSubmit
  int cores = 1;          ///< kSubmit
  JobId id = 0;           ///< kSubmit: 0 lets the scheduler assign one
  double weight = 0.0;    ///< kReprice: the user's new weight
  bool reschedule = false;  ///< kReprice: force a sweep now
};

struct Script {
  SchedulerConfig config;
  int nodes = 1;
  int cores_per_node = 1;
  double age_bucket = 1.0;
  std::vector<Op> ops;
};

struct Outcome {
  std::vector<Record> starts;
  std::vector<Record> completions;
  SchedulerStats stats;
  std::size_t pending = 0;
};

const char* const kUsers[] = {"a", "b", "c", "d"};

/// Small integer grids everywhere, so priorities, submit times, end times
/// and external ids tie often; multi-core jobs make backfill matter.
Script random_script(std::uint64_t seed) {
  util::Rng rng(seed);
  Script script;
  script.config.backfill = rng.bernoulli(0.5);
  script.config.reprioritize_interval = static_cast<double>(rng.uniform_int(2, 9));
  script.nodes = static_cast<int>(rng.uniform_int(1, 3));
  script.cores_per_node = static_cast<int>(rng.uniform_int(1, 3));
  script.age_bucket = static_cast<double>(rng.uniform_int(3, 20));
  const int total_cores = script.nodes * script.cores_per_node;
  const auto submits = rng.uniform_int(20, 90);
  const auto reprices = rng.uniform_int(0, 15);
  for (std::int64_t k = 0; k < submits + reprices; ++k) {
    Op op;
    op.user = kUsers[rng.uniform_int(0, 3)];
    op.at = static_cast<double>(rng.uniform_int(0, 60));
    if (k < submits) {
      op.duration = static_cast<double>(rng.uniform_int(1, 12));
      op.cores = static_cast<int>(rng.uniform_int(1, std::min(3, total_cores)));
      op.id = rng.bernoulli(0.5) ? 0 : static_cast<JobId>(rng.uniform_int(1, 40));
    } else {
      op.kind = Op::kReprice;
      op.weight = static_cast<double>(rng.uniform_int(0, 2));
      op.reschedule = rng.bernoulli(0.5);
    }
    script.ops.push_back(op);
  }
  // Interleave submits and reprices in the scheduling (sequence) order.
  for (std::size_t i = script.ops.size(); i > 1; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
    std::swap(script.ops[i - 1], script.ops[static_cast<std::size_t>(j)]);
  }
  return script;
}

template <class Scheduler>
Outcome run_script(const Script& script) {
  sim::Simulator simulator;
  std::map<std::string, double> weights;
  for (const char* user : kUsers) weights[user] = 1.0;
  // Weight plus a stepped age bonus: reprices reorder waiting jobs, and
  // equal weights and age steps tie.
  const double bucket = script.age_bucket;
  PriceFn price = [&weights, bucket](const Job& job, double now) {
    const std::string user = job.system_user.substr(0, job.system_user.find('#'));
    return weights.at(user) + 0.5 * std::floor((now - job.submit_time) / bucket);
  };
  Scheduler scheduler(simulator, Cluster("c", script.nodes, script.cores_per_node), script.config,
                      price);
  Outcome outcome;
  scheduler.add_completion_listener([&outcome](const Job& job) {
    outcome.completions.emplace_back(job.system_user, job.id, job.start_time, job.end_time);
  });
  for (std::size_t k = 0; k < script.ops.size(); ++k) {
    const Op& op = script.ops[k];
    simulator.schedule_at(op.at, [&, k] {
      const Op& current = script.ops[k];
      if (current.kind == Op::kReprice) {
        weights[current.user] = current.weight;
        if (current.reschedule) scheduler.reschedule();
        return;
      }
      Job job;
      job.system_user = current.user + "#" + std::to_string(k);  // unique tag per job
      job.duration = current.duration;
      job.cores = current.cores;
      job.id = current.id;
      scheduler.submit(std::move(job));
    });
  }
  simulator.run_all();
  outcome.starts = scheduler.starts();
  outcome.stats = scheduler.stats();
  outcome.pending = scheduler.pending_count();
  return outcome;
}

void require_same(const std::vector<Record>& want, const std::vector<Record>& got,
                  const char* what) {
  testing::require(want.size() == got.size(),
                   std::string(what) + ": " + std::to_string(got.size()) + " records, reference " +
                       std::to_string(want.size()));
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& [tag, id, t0, t1] = got[i];
    const auto& [want_tag, want_id, want_t0, want_t1] = want[i];
    testing::require(tag == want_tag && id == want_id && t0 == want_t0 && t1 == want_t1,
                     std::string(what) + " #" + std::to_string(i) + ": job " + tag + " id " +
                         std::to_string(id) + " at " + std::to_string(t0) + ", reference job " +
                         want_tag + " id " + std::to_string(want_id) + " at " +
                         std::to_string(want_t0));
  }
}

void drive_identical_streams(std::uint64_t seed) {
  const Script script = random_script(seed);
  const Outcome want = run_script<ReferenceScheduler>(script);
  const Outcome got = run_script<SortedQueueScheduler>(script);
  require_same(want.starts, got.starts, "start");
  require_same(want.completions, got.completions, "completion");
  testing::require(got.stats.submitted == want.stats.submitted &&
                       got.stats.started == want.stats.started &&
                       got.stats.completed == want.stats.completed &&
                       got.stats.total_wait_time == want.stats.total_wait_time,
                   "scheduler stats diverged");
  testing::require(got.pending == 0 && want.pending == 0, "jobs left pending");
}

TEST(RmsQueueDifferential, SortedQueueMatchesPerPassStableSort) {
  const auto outcome = testing::run_property("sorted_queue_vs_stable_sort", 400, 0x5e0edULL,
                                             drive_identical_streams);
  EXPECT_TRUE(outcome.passed) << outcome.summary();
}

TEST(RmsQueueDifferential, ScriptsExerciseTiesBackfillAndDuplicateIds) {
  // Guard the generator: across the trials, the streams must hit the
  // cases the differential claims to cover.
  int backfill = 0;
  int no_backfill = 0;
  int duplicate_ids = 0;
  int multi_core = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Script script = random_script(seed);
    (script.config.backfill ? backfill : no_backfill) += 1;
    std::map<JobId, int> ids;
    for (const Op& op : script.ops) {
      if (op.kind != Op::kSubmit) continue;
      if (op.id != 0 && ++ids[op.id] == 2) ++duplicate_ids;
      if (op.cores > 1) ++multi_core;
    }
  }
  EXPECT_GT(backfill, 0);
  EXPECT_GT(no_backfill, 0);
  EXPECT_GT(duplicate_ids, 0);
  EXPECT_GT(multi_core, 0);
}

}  // namespace
}  // namespace aequus::rms
