#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "obs/trace.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add_int(long long value) { add_bytes(&value, sizeof(value)); }

void Digest::add_double(double value) { add_bytes(&value, sizeof(value)); }

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

JobOutcome outcome_of(const gts::cluster::JobRecord& record) {
  JobOutcome outcome;
  outcome.id = record.id;
  outcome.arrival = record.arrival;
  outcome.start = record.start;
  outcome.end = record.finished() ? record.end : -1.0;
  outcome.gpus = record.gpus;
  outcome.utility = record.placement_utility;
  return outcome;
}

std::string placement_digest(std::vector<JobOutcome> jobs) {
  std::sort(jobs.begin(), jobs.end(),
            [](const JobOutcome& a, const JobOutcome& b) { return a.id < b.id; });
  Digest digest;
  for (const JobOutcome& job : jobs) {
    digest.add_int(job.id);
    digest.add_double(job.start);
    digest.add_int(static_cast<long long>(job.gpus.size()));
    for (const int gpu : job.gpus) digest.add_int(gpu);
    digest.add_double(job.utility);
  }
  return digest.hex();
}

Quality quality_of(const std::vector<JobOutcome>& jobs) {
  Quality quality;
  double jct = 0.0;
  double wait = 0.0;
  double utility = 0.0;
  int placed = 0;
  for (const JobOutcome& job : jobs) {
    if (job.start >= 0.0) {
      wait += job.start - job.arrival;
      utility += job.utility;
      ++placed;
    }
    if (job.end >= 0.0) {
      jct += job.end - job.arrival;
      quality.makespan_s = std::max(quality.makespan_s, job.end);
      ++quality.finished;
    }
  }
  if (quality.finished > 0) quality.jct_mean_s = jct / quality.finished;
  if (placed > 0) {
    quality.wait_mean_s = wait / placed;
    quality.utility_mean = utility / placed;
  }
  return quality;
}

void SpanTotals::merge(const SpanTotals& other) {
  for (const auto& [name, us] : other.self_us) self_us[name] += us;
  for (const auto& [id, us] : other.request_us) request_us[id] = us;
  dropped += other.dropped;
}

SpanTotals drain_spans() {
  struct Span {
    std::string name;
    double ts = 0.0;
    double end = 0.0;
    double dur = 0.0;
    double child_us = 0.0;
    std::size_t order = 0;
  };
  SpanTotals totals;
  totals.dropped = static_cast<long long>(gts::obs::trace_dropped_count());
  std::map<long long, std::vector<Span>> by_thread;
  {
    const gts::json::Value doc = gts::obs::trace_to_json();
    gts::obs::clear_trace();
    std::size_t order = 0;
    for (const gts::json::Value& event : doc.at("traceEvents").as_array()) {
      if (event.at("ph").as_string() != "X") continue;
      Span span;
      span.name = event.at("name").as_string();
      span.ts = event.at("ts").as_number();
      span.dur = event.at("dur").as_number();
      span.end = span.ts + span.dur;
      span.order = order++;
      if (span.name == "svc.request") {
        const gts::json::Value& id = event.at("args").at("request_id");
        if (id.is_number()) totals.request_us[id.as_int()] = span.dur;
      }
      by_thread[event.at("tid").as_int()].push_back(std::move(span));
    }
  }
  for (auto& [tid, spans] : by_thread) {
    // Parents first: earlier start, then longer duration, then (equal
    // intervals at microsecond resolution) the later-emitted one, since a
    // span is emitted when it closes, after its children.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      if (a.dur != b.dur) return a.dur > b.dur;
      return a.order > b.order;
    });
    // The enclosing span of each span is the innermost open one that ends
    // no earlier than it does.
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!stack.empty() && spans[stack.back()].end < spans[i].end) {
        stack.pop_back();
      }
      if (!stack.empty()) spans[stack.back()].child_us += spans[i].dur;
      stack.push_back(i);
    }
    for (const Span& span : spans) {
      totals.self_us[span.name] += std::max(0.0, span.dur - span.child_us);
    }
  }
  return totals;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double open_loop_p99_us(const std::vector<double>& service_us, double rate) {
  const double gap_us = 1e6 / rate;
  std::vector<double> latency;
  latency.reserve(service_us.size());
  double backlog_us = 0.0;  // wait of the current request behind earlier ones
  for (std::size_t i = 0; i < service_us.size(); ++i) {
    if (i > 0) {
      backlog_us = std::max(0.0, backlog_us + service_us[i - 1] - gap_us);
    }
    latency.push_back(backlog_us + service_us[i]);
  }
  return percentile(std::move(latency), 0.99);
}

}  // namespace

double max_rate_within(const std::vector<double>& service_us,
                       double limit_us) {
  if (service_us.empty()) return 0.0;
  // Above 1 / mean service time the backlog grows without bound.
  double hi = 1e6 * static_cast<double>(service_us.size()) / sum(service_us);
  double lo = 0.0;
  if (open_loop_p99_us(service_us, hi) <= limit_us) return hi;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid > 0.0 && open_loop_p99_us(service_us, mid) <= limit_us) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::fail(const std::string& why) { errors_.push_back(why); }

void Result::count_ops(long long attempted, long long failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Result::set_info(const std::string& key, gts::json::Value value) {
  info_.set(key, std::move(value));
}

int Result::print() const {
  gts::json::Value doc;
  doc.set("correct", correct());
  doc.set("attempted", std::max(1LL, attempted_));
  doc.set("failed", failed_);
  gts::json::Value metrics = gts::json::Value(gts::json::Object{});
  if (correct()) {
    for (const auto& [name, entry] : metrics_) {
      gts::json::Value metric;
      metric.set("value", entry.first);
      metric.set("unit", entry.second);
      metrics.set(name, std::move(metric));
    }
  }
  doc.set("metrics", std::move(metrics));
  doc.set("digest", digest_);
  gts::json::Array errors;
  for (const std::string& error : errors_) errors.push_back(error);
  doc.set("errors", std::move(errors));
  if (!info_.is_null()) doc.set("info", info_);
  std::printf("%s\n", gts::json::write(doc).c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
