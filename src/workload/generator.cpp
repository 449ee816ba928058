#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>

#include "stats/sampling.hpp"
#include "util/rng.hpp"

namespace aequus::workload {

Trace generate_trace(const NationalGridModel& model, const GeneratorConfig& config) {
  util::Rng rng(config.seed);
  const auto jobs_for = [&config](double fraction) {
    return static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(config.total_jobs)));
  };
  const std::size_t admin_count = jobs_for(config.admin_job_fraction);
  const std::size_t zero_count = jobs_for(config.zero_duration_fraction);
  // Size the trace once: grown by doubling, a paper-scale trace (~2.4 MB
  // of records) ends in a 3.7 MB block after a chain of smaller ones.
  std::size_t total = admin_count + zero_count;
  for (const auto& user : model.users()) total += jobs_for(user.job_fraction);
  Trace trace;
  trace.records().reserve(total);
  const double window = model.window_seconds();

  // Regular jobs, per user.
  std::map<std::string, double> user_usage;
  for (const auto& user : model.users()) {
    const std::size_t count = jobs_for(user.job_fraction);
    const stats::BoundedSampler arrivals(*user.arrival, 0.0, window);
    const stats::BoundedSampler durations(*user.duration, 1.0, user.duration_cap);
    for (std::size_t i = 0; i < count; ++i) {
      TraceRecord record;
      record.user = user.name;
      record.submit = arrivals.sample(rng);
      record.duration = durations.sample(rng);
      record.cores = 1;
      user_usage[user.name] += record.duration;
      trace.add(std::move(record));
    }
  }

  // Load scaling: one multiplicative factor per user so the realized usage
  // shares equal the model's targets and the total hits the requested load.
  if (config.target_total_usage > 0.0) {
    std::map<std::string, double> factor;
    for (const auto& user : model.users()) {
      const double current = user_usage[user.name];
      if (current <= 0.0) continue;
      factor[user.name] = config.target_total_usage * user.usage_fraction / current;
    }
    for (auto& record : trace.records()) {
      const auto it = factor.find(record.user);
      if (it != factor.end()) record.duration *= it->second;
    }
  }

  // Injected admin/monitoring jobs: frequent, short, uniformly spread.
  for (std::size_t i = 0; i < admin_count; ++i) {
    TraceRecord record;
    record.user = i % 2 == 0 ? "sysadmin" : "monitor";
    record.admin = true;
    record.submit = rng.uniform(0.0, window);
    record.duration = rng.uniform(config.admin_duration_lo, config.admin_duration_hi);
    trace.add(std::move(record));
  }

  // Injected zero-duration (cancelled/failed) jobs from regular users.
  const auto& users = model.users();
  for (std::size_t i = 0; i < zero_count; ++i) {
    TraceRecord record;
    record.user = users[i % users.size()].name;
    record.submit = rng.uniform(0.0, window);
    record.duration = 0.0;
    trace.add(std::move(record));
  }

  trace.sort_by_submit();
  return trace;
}

void enforce_walltime_cap(Trace& trace, const std::map<std::string, double>& usage_targets,
                          double cap, int passes) {
  if (cap <= 0.0) return;
  for (int pass = 0; pass < passes; ++pass) {
    for (auto& record : trace.records()) {
      record.duration = std::min(record.duration, cap);
    }
    std::map<std::string, double> current;
    for (const auto& record : trace.records()) current[record.user] += record.usage();
    std::map<std::string, double> factor;
    for (const auto& [user, target] : usage_targets) {
      const auto it = current.find(user);
      if (it != current.end() && it->second > 0.0) factor[user] = target / it->second;
    }
    for (auto& record : trace.records()) {
      const auto it = factor.find(record.user);
      if (it != factor.end()) record.duration *= it->second;
    }
  }
}

Trace scale_trace(const Trace& input, double time_factor, double duration_factor) {
  Trace out;
  for (const auto& r : input.records()) {
    TraceRecord scaled = r;
    scaled.submit = r.submit * time_factor;
    scaled.duration = r.duration * duration_factor;
    out.add(std::move(scaled));
  }
  out.sort_by_submit();
  return out;
}

}  // namespace aequus::workload
