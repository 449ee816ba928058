#include "testing/determinism.hpp"

#include <cstdio>

#include "util/strings.hpp"

namespace aequus::testing {

namespace {

/// Longest " (%.17g,%.17g)" point: two 24-character numbers
/// ("-1.2345678901234567e-308") and four separators.
constexpr std::size_t kMaxPointChars = 2 * 24 + 4;

/// Upper bound on what append_series adds for `series`.
std::size_t series_bound(const util::SeriesSet& series) {
  std::size_t bound = 0;
  for (const auto& [name, one] : series.all()) {
    bound += name.size() + 2 + one.size() * kMaxPointChars;
  }
  return bound;
}

/// Render `series` onto the end of `out`. Callers reserve series_bound
/// first: a paper-scale result holds ~90k points, and rendering them into
/// one buffer of about the final size keeps the fingerprint's transient
/// memory at the size of the string itself.
void append_series(std::string& out, const util::SeriesSet& series) {
  char point[kMaxPointChars + 1];
  for (const auto& [name, one] : series.all()) {
    out += name;
    out += ':';
    for (std::size_t i = 0; i < one.size(); ++i) {
      const int length =
          std::snprintf(point, sizeof point, " (%.17g,%.17g)", one.times()[i], one.values()[i]);
      out.append(point, static_cast<std::size_t>(length));
    }
    out += '\n';
  }
}

}  // namespace

std::string fingerprint(const net::BusStats& stats) {
  std::string out;
  out += util::format("requests=%llu\n", static_cast<unsigned long long>(stats.requests));
  out += util::format("one_way=%llu\n", static_cast<unsigned long long>(stats.one_way));
  out += util::format("dropped_participation=%llu\n",
                      static_cast<unsigned long long>(stats.dropped_participation));
  out += util::format("dropped_unbound=%llu\n",
                      static_cast<unsigned long long>(stats.dropped_unbound));
  out += util::format("dropped_loss=%llu\n",
                      static_cast<unsigned long long>(stats.dropped_loss));
  out += util::format("dropped_outage=%llu\n",
                      static_cast<unsigned long long>(stats.dropped_outage));
  out += util::format("duplicated=%llu\n", static_cast<unsigned long long>(stats.duplicated));
  out += util::format("unbound_bounces=%llu\n",
                      static_cast<unsigned long long>(stats.unbound_bounces));
  out += util::format("payload_bytes=%llu\n",
                      static_cast<unsigned long long>(stats.payload_bytes));
  out += util::format("batches=%llu\n", static_cast<unsigned long long>(stats.batches));
  out += util::format("batch_records=%llu\n",
                      static_cast<unsigned long long>(stats.batch_records));
  return out;
}

std::string fingerprint(const util::SeriesSet& series) {
  std::string out;
  out.reserve(series_bound(series));
  append_series(out, series);
  return out;
}

std::string fingerprint(const testbed::ExperimentResult& result) {
  const util::SeriesSet* const series[] = {&result.usage_shares,    &result.priorities,
                                           &result.per_site,        &result.utilization,
                                           &result.start_priorities, &result.waits};
  // Counters, bus stats and headers fit in 4 KB; a final share line holds
  // its user name and one number.
  std::size_t bound = 4096;
  for (const auto& entry : result.final_usage_share) bound += entry.first.size() + 40;
  for (const util::SeriesSet* one : series) bound += series_bound(*one);
  std::string out;
  out.reserve(bound);
  out += util::format("jobs_submitted=%llu\n",
                      static_cast<unsigned long long>(result.jobs_submitted));
  out += util::format("jobs_completed=%llu\n",
                      static_cast<unsigned long long>(result.jobs_completed));
  out += util::format("makespan=%.17g\n", result.makespan);
  out += util::format("mean_utilization=%.17g\n", result.mean_utilization);
  out += util::format("rates=(%.17g,%.17g)\n", result.rates.sustained_per_minute,
                      result.rates.peak_per_minute);
  for (const auto& [user, share] : result.final_usage_share) {
    out += util::format("final_share[%s]=%.17g\n", user.c_str(), share);
  }
  out += "[bus]\n";
  out += fingerprint(result.bus);
  out += "[usage_shares]\n";
  append_series(out, result.usage_shares);
  out += "[priorities]\n";
  append_series(out, result.priorities);
  out += "[per_site]\n";
  append_series(out, result.per_site);
  out += "[utilization]\n";
  append_series(out, result.utilization);
  out += "[start_priorities]\n";
  append_series(out, result.start_priorities);
  out += "[waits]\n";
  append_series(out, result.waits);
  return out;
}

void attach_fingerprints(testbed::SweepSpec& spec) {
  spec.fingerprinter = [](const testbed::ExperimentResult& result) {
    return fingerprint(result);
  };
}

}  // namespace aequus::testing
