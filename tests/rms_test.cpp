#include <gtest/gtest.h>

#include "rms/scheduler.hpp"

namespace aequus::rms {
namespace {

TEST(ClusterModel, CapacityAccounting) {
  Cluster c("test", 4, 2);
  EXPECT_EQ(c.total_cores(), 8);
  EXPECT_EQ(c.free_cores(), 8);
  c.allocate(5, 0.0);
  EXPECT_EQ(c.busy_cores(), 5);
  EXPECT_TRUE(c.can_allocate(3));
  EXPECT_FALSE(c.can_allocate(4));
  c.release(2, 10.0);
  EXPECT_EQ(c.busy_cores(), 3);
}

TEST(ClusterModel, RejectsOverCommitAndOverRelease) {
  Cluster c("test", 1, 2);
  EXPECT_THROW(c.allocate(3, 0.0), std::runtime_error);
  c.allocate(2, 0.0);
  EXPECT_THROW(c.release(3, 1.0), std::runtime_error);
}

TEST(ClusterModel, ValidatesConstruction) {
  EXPECT_THROW(Cluster("x", 0, 1), std::invalid_argument);
  EXPECT_THROW(Cluster("x", 1, -1), std::invalid_argument);
}

TEST(ClusterModel, UtilizationIntegratesBusyCores) {
  Cluster c("test", 1, 4);
  c.allocate(4, 0.0);
  c.release(4, 50.0);
  // 4 cores busy for 50 of 100 seconds = 50% utilization.
  EXPECT_NEAR(c.utilization(100.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.busy_core_seconds(), 200.0);
}

TEST(ClusterModel, UtilizationIncludesOngoingAllocation) {
  Cluster c("test", 1, 2);
  c.allocate(2, 0.0);
  EXPECT_NEAR(c.utilization(10.0), 1.0, 1e-12);
}

/// Test scheduler: priority = negative submit order (FIFO) unless a map
/// provides per-user priorities. Counts the jobs it prices.
class TestScheduler : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;
  std::map<std::string, double> priorities;
  int priced = 0;

 protected:
  double compute_priority(const PriorityContext& context) override {
    ++priced;
    const auto it = priorities.find(context.job.system_user);
    return it == priorities.end() ? 0.0 : it->second;
  }
};

Job make_job(const std::string& user, double duration, int cores = 1) {
  Job job;
  job.system_user = user;
  job.duration = duration;
  job.cores = cores;
  return job;
}

TEST(SchedulerModel, RunsJobsToCompletion) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 2, 1));
  scheduler.submit(make_job("a", 10.0));
  scheduler.submit(make_job("b", 20.0));
  simulator.run_all();
  EXPECT_EQ(scheduler.stats().submitted, 2u);
  EXPECT_EQ(scheduler.stats().completed, 2u);
  EXPECT_EQ(scheduler.pending_count(), 0u);
  EXPECT_EQ(scheduler.running_count(), 0u);
  EXPECT_DOUBLE_EQ(scheduler.local_usage().at("a"), 10.0);
  EXPECT_DOUBLE_EQ(scheduler.local_usage().at("b"), 20.0);
}

TEST(SchedulerModel, CapacityLimitsParallelism) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  scheduler.submit(make_job("a", 10.0));
  scheduler.submit(make_job("b", 10.0));
  simulator.run_all();
  // Serial execution: makespan 20 s.
  EXPECT_DOUBLE_EQ(simulator.now(), 20.0);
}

TEST(SchedulerModel, HigherPriorityRunsFirst) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  scheduler.priorities = {{"low", 0.1}, {"high", 0.9}};
  // Fill the core so both contenders queue.
  scheduler.submit(make_job("filler", 5.0));
  scheduler.submit(make_job("low", 5.0));
  scheduler.submit(make_job("high", 5.0));

  std::vector<std::string> completion_order;
  scheduler.add_completion_listener(
      [&](const Job& job) { completion_order.push_back(job.system_user); });
  simulator.run_all();
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[1], "high");
  EXPECT_EQ(completion_order[2], "low");
}

TEST(SchedulerModel, FifoBreaksPriorityTies) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  scheduler.submit(make_job("filler", 5.0));
  scheduler.submit(make_job("first", 5.0));
  scheduler.submit(make_job("second", 5.0));
  std::vector<std::string> order;
  scheduler.add_completion_listener([&](const Job& job) { order.push_back(job.system_user); });
  simulator.run_all();
  EXPECT_EQ(order[1], "first");
  EXPECT_EQ(order[2], "second");
}

TEST(SchedulerModel, BackfillLetsSmallJobsPassBlockedHead) {
  sim::Simulator simulator;
  SchedulerConfig config;
  config.backfill = true;
  TestScheduler scheduler(simulator, Cluster("c", 2, 1), config);
  scheduler.priorities = {{"wide", 0.9}, {"narrow", 0.1}};
  scheduler.submit(make_job("filler", 10.0));     // occupies 1 of 2 cores
  scheduler.submit(make_job("wide", 10.0, 2));    // blocked (needs 2)
  scheduler.submit(make_job("narrow", 4.0, 1));   // can backfill now
  std::vector<std::string> started;
  scheduler.add_completion_listener([&](const Job& job) { started.push_back(job.system_user); });
  simulator.run_all();
  EXPECT_EQ(started.front(), "narrow");
  EXPECT_EQ(scheduler.stats().completed, 3u);
}

TEST(SchedulerModel, NoBackfillBlocksBehindWideJob) {
  sim::Simulator simulator;
  SchedulerConfig config;
  config.backfill = false;
  TestScheduler scheduler(simulator, Cluster("c", 2, 1), config);
  scheduler.priorities = {{"wide", 0.9}, {"narrow", 0.1}};
  scheduler.submit(make_job("filler", 10.0));
  scheduler.submit(make_job("wide", 10.0, 2));
  scheduler.submit(make_job("narrow", 4.0, 1));
  std::vector<std::string> order;
  scheduler.add_completion_listener([&](const Job& job) { order.push_back(job.system_user); });
  simulator.run_all();
  // narrow completes last despite being short: strict priority order.
  EXPECT_EQ(order.back(), "narrow");
}

TEST(SchedulerModel, ReprioritizationReordersQueue) {
  sim::Simulator simulator;
  SchedulerConfig config;
  config.reprioritize_interval = 10.0;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1), config);
  scheduler.priorities = {{"a", 0.9}, {"b", 0.1}};
  scheduler.submit(make_job("filler", 25.0));
  scheduler.submit(make_job("a", 5.0));
  scheduler.submit(make_job("b", 5.0));
  // Flip priorities while both wait in the queue.
  simulator.schedule_at(12.0, [&] { scheduler.priorities = {{"a", 0.1}, {"b", 0.9}}; });
  std::vector<std::string> order;
  scheduler.add_completion_listener([&](const Job& job) { order.push_back(job.system_user); });
  simulator.run_all();
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "a");
}

TEST(SchedulerModel, EqualPrioritiesDispatchInSubmitTimeOrder) {
  // Regression: the dispatch sort used to compare priorities only, so a
  // tie kept whatever order an *earlier* pass left the queue in — a job
  // that once outranked another stayed ahead after their priorities
  // equalized. Ties now dispatch FIFO by submit time.
  sim::Simulator simulator;
  SchedulerConfig config;
  config.reprioritize_interval = 1.0;  // frequent sweeps pick up the change
  TestScheduler scheduler(simulator, Cluster("c", 1, 1), config);
  std::vector<std::string> finished;
  scheduler.add_completion_listener(
      [&](const Job& job) { finished.push_back(job.system_user); });

  scheduler.submit(make_job("hog", 10.0));  // occupies the only core
  simulator.schedule_at(1.0, [&] { scheduler.submit(make_job("early", 1.0)); });
  simulator.schedule_at(2.0, [&] {
    scheduler.priorities["late"] = 5.0;  // outranks "early" for now
    scheduler.submit(make_job("late", 1.0));
  });
  // Before anything dispatches, the priorities equalize.
  simulator.schedule_at(3.0, [&] { scheduler.priorities["late"] = 0.0; });

  simulator.run_all();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_EQ(finished[1], "early");
  EXPECT_EQ(finished[2], "late");
}

TEST(SchedulerModel, EqualPrioritiesAndSubmitTimesDispatchByJobId) {
  // Externally assigned ids (SLURM-style) can arrive out of order within
  // one submission instant; the id is the final tie-break, so the lower
  // id dispatches first regardless of queue insertion order.
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  std::vector<JobId> finished;
  scheduler.add_completion_listener([&](const Job& job) { finished.push_back(job.id); });

  scheduler.submit(make_job("hog", 10.0));  // id 1, starts immediately
  Job high_id = make_job("u", 1.0);
  high_id.id = 100;
  Job low_id = make_job("v", 1.0);
  low_id.id = 50;
  scheduler.submit(std::move(high_id));  // inserted first...
  scheduler.submit(std::move(low_id));   // ...but the lower id wins the tie

  simulator.run_all();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_EQ(finished[1], 50u);
  EXPECT_EQ(finished[2], 100u);
}

TEST(SchedulerModel, WaitTimeAccounting) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 1, 1));
  scheduler.submit(make_job("a", 10.0));
  scheduler.submit(make_job("b", 10.0));
  simulator.run_all();
  // a waits 0, b waits 10.
  EXPECT_DOUBLE_EQ(scheduler.stats().total_wait_time, 10.0);
}

TEST(SchedulerModel, RejectsJobsWithoutCores) {
  // A pass stops scanning once no core is free; a zero-core job would
  // always fit, so the scheduler refuses it up front.
  for (const int cores : {0, -1}) {
    sim::Simulator simulator;
    TestScheduler scheduler(simulator, Cluster("c", 1, 1));
    scheduler.submit(make_job("hog", 10.0));  // id 1; the core is now busy
    EXPECT_THROW(scheduler.submit(make_job("empty", 1.0, cores)), std::invalid_argument)
        << cores << " cores";
    EXPECT_EQ(scheduler.priced, 1) << "a rejected job must not be priced";
    EXPECT_EQ(scheduler.stats().submitted, 1u);
    EXPECT_EQ(scheduler.pending_count(), 0u);
    EXPECT_EQ(scheduler.submit(make_job("next", 1.0)), 2u) << "no id was consumed";
    simulator.run_all();
    EXPECT_EQ(scheduler.stats().completed, 2u);
  }
}

TEST(SchedulerModel, AssignsUniqueIds) {
  sim::Simulator simulator;
  TestScheduler scheduler(simulator, Cluster("c", 4, 1));
  const JobId id1 = scheduler.submit(make_job("a", 1.0));
  const JobId id2 = scheduler.submit(make_job("b", 1.0));
  EXPECT_NE(id1, id2);
  EXPECT_NE(id1, 0u);
}

TEST(JobModel, UsageAndWaitTime) {
  Job job = make_job("u", 100.0, 4);
  job.submit_time = 10.0;
  EXPECT_DOUBLE_EQ(job.usage(), 400.0);
  EXPECT_DOUBLE_EQ(job.wait_time(25.0), 15.0);
  job.start_time = 20.0;
  EXPECT_DOUBLE_EQ(job.wait_time(99.0), 10.0);
  EXPECT_EQ(to_string(JobState::kPending), "pending");
  EXPECT_EQ(to_string(JobState::kRunning), "running");
  EXPECT_EQ(to_string(JobState::kCompleted), "completed");
}

}  // namespace
}  // namespace aequus::rms
