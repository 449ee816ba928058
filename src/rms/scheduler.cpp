#include "rms/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace aequus::rms {

namespace {

/// Dispatch order: highest priority first; ties dispatch FIFO by submit
/// time, then by job id so externally assigned ids cannot jump jobs
/// submitted earlier in the same instant.
bool dispatches_before(const Job& a, const Job& b) noexcept {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
  return a.id < b.id;
}

}  // namespace

SchedulerBase::SchedulerBase(sim::Simulator& simulator, Cluster cluster, SchedulerConfig config)
    : simulator_(simulator), cluster_(std::move(cluster)), config_(config) {
  site_label_ = cluster_.name();
}

void SchedulerBase::set_fairshare_provider(FairshareProvider provider) {
  fairshare_provider_ = std::move(provider);
}

core::FairshareSnapshotPtr SchedulerBase::current_fairshare() const {
  return fairshare_provider_ ? fairshare_provider_() : nullptr;
}

void SchedulerBase::ensure_reprioritize_scheduled() {
  // Periodic priority sweeps run only while jobs wait, so an idle
  // scheduler leaves the event queue drainable.
  if (reprioritize_scheduled_ || pending_.empty()) return;
  reprioritize_scheduled_ = true;
  reprioritize_handle_ =
      simulator_.schedule_after(config_.reprioritize_interval, [this] {
        reprioritize_scheduled_ = false;
        reschedule();
        ensure_reprioritize_scheduled();
      });
}

JobId SchedulerBase::submit(Job job) {
  // A pass stops scanning once no core is free, which is only exact when
  // every job needs at least one.
  if (job.cores < 1) throw std::invalid_argument("SchedulerBase::submit: cores must be >= 1");
  if (job.id == 0) job.id = next_id_++;
  else next_id_ = std::max(next_id_, job.id + 1);
  job.state = JobState::kPending;
  job.submit_time = simulator_.now();
  job.priority =
      compute_priority(PriorityContext{job, simulator_.now(), current_fairshare(), site_label_});
  const JobId id = job.id;
  // upper_bound keeps equal keys (duplicate external ids) in arrival order.
  const auto position =
      std::upper_bound(pending_.begin(), pending_.end(), job, dispatches_before);
  pending_.insert(position, std::move(job));
  ++stats_.submitted;
  obs::bump(submitted_counter_);
  schedule_pass();
  ensure_reprioritize_scheduled();
  return id;
}

void SchedulerBase::add_completion_listener(CompletionListener listener) {
  listeners_.push_back(std::move(listener));
}

void SchedulerBase::attach_observability(obs::Observability obs, const std::string& site) {
  obs_ = obs;
  obs_site_ = site;
  site_label_ = site;
  if (obs_.registry != nullptr) {
    const std::string prefix = "rm." + site + ".";
    submitted_counter_ = &obs_.registry->counter(prefix + "submitted");
    started_counter_ = &obs_.registry->counter(prefix + "started");
    completed_counter_ = &obs_.registry->counter(prefix + "completed");
    // Queue waits span sub-second dispatches to multi-hour backlogs.
    wait_histogram_ = &obs_.registry->histogram(prefix + "wait_s",
                                                obs::HistogramSpec{0.1, 2.0, 24});
  }
}

void SchedulerBase::reschedule() {
  const double now = simulator_.now();
  // Root span of the periodic priority sweep: fairshare lookups the sweep
  // performs (client cache hits/misses, IRS calls) nest under it.
  obs::SpanContext span;
  if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
    span = obs_.tracer->begin_span(now, obs_site_, "rm", "reprioritize:" + cluster_.name());
  }
  obs::SpanScope scope(obs_.tracer, span);
  // One snapshot for the whole sweep: every pending job is priced against
  // the same fairshare generation.
  const core::FairshareSnapshotPtr fairshare = current_fairshare();
  for (auto& job : pending_) {
    job.priority = compute_priority(PriorityContext{job, now, fairshare, site_label_});
  }
  // Repricing is the only step that can reorder waiting jobs.
  std::stable_sort(pending_.begin(), pending_.end(), dispatches_before);
  schedule_pass();
  if (span.valid() && obs_.tracer != nullptr) {
    obs_.tracer->end_span(simulator_.now(), span, obs_site_, "rm", {},
                          static_cast<double>(pending_.size()));
  }
}

void SchedulerBase::schedule_pass() {
  if (pending_.empty()) return;
  // pending_ is in dispatch order, so a pass only scans it: started jobs
  // leave, skipped (backfill) jobs are compacted to the front in order.
  // Every job needs a core, so nothing starts once none is free.
  std::size_t kept = 0;
  std::size_t next = 0;
  for (; next < pending_.size() && cluster_.free_cores() > 0; ++next) {
    Job& job = pending_[next];
    if (cluster_.can_allocate(job.cores)) {
      start_job(std::move(job));
      continue;
    }
    if (!config_.backfill) break;  // nothing starts past a blocked job
    if (kept != next) pending_[kept] = std::move(job);
    ++kept;
  }
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(kept),
                 pending_.begin() + static_cast<std::ptrdiff_t>(next));
  if (pending_.empty() && reprioritize_scheduled_) {
    reprioritize_handle_.cancel();
    reprioritize_scheduled_ = false;
  }
}

void SchedulerBase::start_job(Job job) {
  const double now = simulator_.now();
  cluster_.allocate(job.cores, now);
  job.state = JobState::kRunning;
  job.start_time = now;
  job.end_time = now + job.duration;
  ++running_;
  ++stats_.started;
  stats_.total_wait_time += now - job.submit_time;
  obs::bump(started_counter_);
  if (wait_histogram_ != nullptr) wait_histogram_->record(now - job.submit_time);
  if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
    obs_.tracer->record(now, obs::EventKind::kSchedulerDecision, obs_site_, cluster_.name(),
                        job.system_user, job.priority, job.id);
  }
  AEQ_TRACE("rms") << cluster_.name() << " start job " << job.id << " user "
                   << job.system_user;
  simulator_.schedule_at(job.end_time,
                         [this, job = std::move(job)]() mutable { finish_job(std::move(job)); });
}

void SchedulerBase::finish_job(Job job) {
  const double now = simulator_.now();
  cluster_.release(job.cores, now);
  job.state = JobState::kCompleted;
  job.end_time = now;
  --running_;
  ++stats_.completed;
  obs::bump(completed_counter_);
  local_usage_[job.system_user] += job.usage();
  // Root span of the usage propagation chain: everything the completion
  // triggers — jobcomp plugins, identity resolution, the usage report
  // send, the follow-up scheduling pass — nests under it, so one job
  // completion yields one trace tree the analyzer can walk end to end.
  obs::SpanContext span;
  if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
    span = obs_.tracer->begin_span(now, obs_site_, "rm", "jobcomp:" + cluster_.name());
  }
  {
    obs::SpanScope scope(obs_.tracer, span);
    on_job_completed(job);
    for (const auto& listener : listeners_) listener(job);
    schedule_pass();
  }
  if (span.valid() && obs_.tracer != nullptr) {
    obs_.tracer->end_span(simulator_.now(), span, obs_site_, "rm", job.system_user,
                          static_cast<double>(job.id));
  }
}

}  // namespace aequus::rms
