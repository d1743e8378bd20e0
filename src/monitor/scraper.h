// Periodic metric scraper.
//
// Pulls gauge/counter values out of a MetricRegistry on a fixed interval and
// persists them as time series in the system database — the "historical
// monitoring data ... enabling operational decision making and capacity
// planning" of §3.2.
#pragma once

#include <memory>
#include <string>

#include "db/database.h"
#include "monitor/metrics.h"
#include "sim/environment.h"

namespace gpunion::monitor {

class Scraper {
 public:
  /// Scrapes `registry` every `interval` into `database`.  Series are named
  /// "<family>{label=value,...}".
  Scraper(sim::Environment& env, const MetricRegistry& registry,
          db::Database& database, util::Duration interval);

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }

  /// One scrape pass (also called by the timer).
  void scrape_once();

  std::uint64_t scrape_count() const { return scrapes_; }

  /// Series name for a family + labels, matching what scrape_once writes.
  static std::string series_name(const std::string& family,
                                 const Labels& labels);

 private:
  sim::Environment& env_;
  const MetricRegistry& registry_;
  db::Database& database_;
  sim::PeriodicTimer timer_;
  std::uint64_t scrapes_ = 0;
};

}  // namespace gpunion::monitor
