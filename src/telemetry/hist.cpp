#include "telemetry/hist.hpp"

#include <algorithm>
#include <cmath>

namespace cod::telemetry {

std::size_t LogHistogram::bucketOf(double v, double lowest) {
  if (!(v > lowest)) return 0;  // also catches NaN
  // Smallest i with lowest * 2^(i/4) >= v, i.e. i = ceil(4 * log2(v/l)).
  const double i = std::ceil(static_cast<double>(kHistSubBuckets) *
                             std::log2(v / lowest));
  if (i >= static_cast<double>(kHistBuckets - 1)) return kHistBuckets - 1;
  return static_cast<std::size_t>(i);
}

double LogHistogram::bucketUpperBound(std::size_t idx, double lowest) {
  return lowest * std::exp2(static_cast<double>(idx) /
                            static_cast<double>(kHistSubBuckets));
}

void LogHistogram::record(double v) {
  if (!(v > 0.0)) v = 0.0;  // clamp negatives and NaN
  ++snap_.buckets[bucketOf(v, lowest_)];
  snap_.sum += v;
  snap_.min = snap_.count == 0 ? v : std::min(snap_.min, v);
  snap_.max = std::max(snap_.max, v);
  ++snap_.count;
}

HistogramSnapshot LogHistogram::diff(const HistogramSnapshot& cur,
                                     const HistogramSnapshot& prev) {
  HistogramSnapshot d;
  d.count = cur.count >= prev.count ? cur.count - prev.count : 0;
  d.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : 0.0;
  // Interval min/max are not derivable from cumulative snapshots; the
  // bucket array is, and percentile(d, 0/1) recovers bounds from it.
  d.min = 0.0;
  d.max = cur.max;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    d.buckets[i] = cur.buckets[i] >= prev.buckets[i]
                       ? cur.buckets[i] - prev.buckets[i]
                       : 0;
  }
  return d;
}

void LogHistogram::merge(HistogramSnapshot& into, const HistogramSnapshot& s) {
  if (s.count == 0) return;
  into.min = into.count == 0 ? s.min : std::min(into.min, s.min);
  into.max = into.count == 0 ? s.max : std::max(into.max, s.max);
  into.count += s.count;
  into.sum += s.sum;
  for (std::size_t i = 0; i < kHistBuckets; ++i) into.buckets[i] += s.buckets[i];
}

double LogHistogram::percentile(const HistogramSnapshot& s, double p,
                                double lowest) {
  if (s.count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the target sample, 1-based; p=1 lands on the last sample.
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(s.count))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i < kHistBuckets - 1; ++i) {
    seen += s.buckets[i];
    if (seen >= target) break;
  }
  // A bucket's upper edge can lie past every sample in it; no quantile
  // may read outside the snapshot's own [min, max].
  return std::min(std::max(bucketUpperBound(i, lowest), s.min), s.max);
}

LogHistogram& CbHistograms::at(std::size_t i) {
  switch (i) {
    case 0: return deliveryLatencySec;
    case 1: return tickDurationSec;
    case 2: return flushBytes;
    default: return retransmitDelaySec;
  }
}

const LogHistogram& CbHistograms::at(std::size_t i) const {
  return const_cast<CbHistograms*>(this)->at(i);
}

const char* CbHistograms::name(std::size_t i) {
  switch (i) {
    case 0: return "latency.deliverySec";
    case 1: return "cb.tickDurationSec";
    case 2: return "batch.flushBytes";
    default: return "reliable.retxDelaySec";
  }
}

double CbHistograms::lowestOf(std::size_t i) {
  switch (i) {
    case 0: return 1e-5;
    case 1: return 1e-6;
    case 2: return 16.0;
    default: return 1e-4;
  }
}

LogHistogram& TickPhaseHistograms::at(std::size_t i) {
  switch (i) {
    case 0: return pollDecodeSec;
    case 1: return routeSec;
    case 2: return timersSec;
    case 3: return stageSec;
    default: return flushSec;
  }
}

const LogHistogram& TickPhaseHistograms::at(std::size_t i) const {
  return const_cast<TickPhaseHistograms*>(this)->at(i);
}

const char* TickPhaseHistograms::name(std::size_t i) {
  switch (i) {
    case 0: return "phase.pollDecodeSec";
    case 1: return "phase.routeSec";
    case 2: return "phase.timersSec";
    case 3: return "phase.stageSec";
    default: return "phase.flushSec";
  }
}

const char* TickPhaseHistograms::shortName(std::size_t i) {
  switch (i) {
    case 0: return "poll";
    case 1: return "route";
    case 2: return "timer";
    case 3: return "stage";
    default: return "flush";
  }
}

}  // namespace cod::telemetry
