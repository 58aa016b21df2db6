#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "core/protocol.hpp"

namespace perfbench {

namespace {

// Keeps probe results observable so the probed calls are not folded away.
volatile std::uint64_t gSink = 0;

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::string fmt(const char* f, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

}  // namespace

// ---- statistics ---------------------------------------------------------

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 50.0);
}

double highestReportablePercentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99})
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) best = p;
  return best;
}

LatencySummary summarize(std::vector<double>& samples) {
  LatencySummary s;
  std::sort(samples.begin(), samples.end());
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = percentile(samples, 50.0);
  s.p99 = percentile(samples, 99.0);
  s.topP = highestReportablePercentile(s.n);
  s.topValue = percentile(samples, s.topP);
  s.max = samples.back();
  return s;
}

std::string describe(const std::string& what, const LatencySummary& s,
                     const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: %zu samples: p50 %.6g, p99 %.6g, p%g %.6g, max %.6g %s",
                what.c_str(), s.n, s.p50, s.p99, s.topP, s.topValue, s.max,
                unit);
  return buf;
}

void FastestSegments::open() {
  if (open_ == episode_.size()) episode_.emplace_back();
  Segment& s = episode_[open_++];
  s.latencyUs.clear();
  s.vlatencyMs.clear();
  startNs_ = nowNs();
}

void FastestSegments::close(std::uint64_t delivered) {
  Segment& s = current();
  s.wallNs = nowNs() - startNs_;
  s.delivered = delivered;
}

bool FastestSegments::endEpisode() {
  const bool same = repetitions_ == 0 || open_ == best_.size();
  if (best_.size() < open_) best_.resize(open_);
  for (std::size_t i = 0; i < open_; ++i) {
    const Segment& s = episode_[i];
    Segment& b = best_[i];
    if (repetitions_ > 0 && s.wallNs >= b.wallNs) continue;
    b.wallNs = s.wallNs;
    b.delivered = s.delivered;
    b.latencyUs.assign(s.latencyUs.begin(), s.latencyUs.end());
    b.vlatencyMs.assign(s.vlatencyMs.begin(), s.vlatencyMs.end());
  }
  open_ = 0;
  ++repetitions_;
  return same;
}

double FastestSegments::wallS() const {
  std::int64_t ns = 0;
  for (const Segment& s : best_) ns += s.wallNs;
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t FastestSegments::delivered() const {
  std::uint64_t n = 0;
  for (const Segment& s : best_) n += s.delivered;
  return n;
}

LatencySummary FastestSegments::latency() const {
  std::vector<double> all;
  for (const Segment& s : best_)
    all.insert(all.end(), s.latencyUs.begin(), s.latencyUs.end());
  return summarize(all);
}

LatencySummary FastestSegments::vlatency() const {
  std::vector<double> all;
  for (const Segment& s : best_)
    all.insert(all.end(), s.vlatencyMs.begin(), s.vlatencyMs.end());
  return summarize(all);
}

std::vector<std::string> percentileSelfTest() {
  std::vector<std::string> failures;
  auto expect = [&](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want)))
      failures.push_back(std::string(what) + fmt(": got %.12g, want %.12g",
                                                 got, want));
  };
  const std::vector<double> five = {1, 2, 3, 4, 5};
  expect("p0 of 1..5", percentile(five, 0), 1.0);
  expect("p25 of 1..5", percentile(five, 25), 2.0);
  expect("p50 of 1..5", percentile(five, 50), 3.0);
  expect("p90 of 1..5", percentile(five, 90), 4.6);  // rank 3.6
  expect("p100 of 1..5", percentile(five, 100), 5.0);
  expect("p50 of {10,20}", percentile({10, 20}, 50), 15.0);
  expect("p99 of {10,20}", percentile({10, 20}, 99), 19.9);
  expect("p99 of {7}", percentile({7}, 99), 7.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect("p99 of 1..100", percentile(hundred, 99), 99.01);  // rank 98.01
  // A percentile never exceeds the largest sample, even with a heavy tail.
  std::vector<double> tail(1000, 1.0);
  tail.back() = 1e6;
  const LatencySummary ts = summarize(tail);
  if (!(ts.p99 <= ts.max)) failures.push_back("p99 above max");
  expect("p99 of 999x1 + 1e6", ts.p99, 1.0);  // rank 989.01 is inside the 1s
  expect("p99.9 of 999x1 + 1e6", percentile(tail, 99.9),
         1.0 + (1e6 - 1.0) * 0.001);  // rank 998.001
  expect("top percentile, n=19", highestReportablePercentile(19), 0.0);
  expect("top percentile, n=20", highestReportablePercentile(20), 50.0);
  expect("top percentile, n=100", highestReportablePercentile(100), 90.0);
  expect("top percentile, n=999", highestReportablePercentile(999), 90.0);
  expect("top percentile, n=1000", highestReportablePercentile(1000), 99.0);
  expect("top percentile, n=10000", highestReportablePercentile(10000), 99.9);
  expect("top percentile, n=100000", highestReportablePercentile(100000),
         99.99);
  return failures;
}

// ---- tracing ------------------------------------------------------------

void Tracer::begin(SpanKind kind) {
  stack_.push_back(Open{kind, nowNs(), 0});
}

std::int64_t Tracer::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = nowNs() - open.startNs;
  Stat& s = stats_[static_cast<int>(open.kind)];
  ++s.count;
  s.totalNs += dur;
  s.selfNs += dur - open.childNs;
  if (!stack_.empty()) stack_.back().childNs += dur;
  return dur;
}

double Tracer::meanSelfNs(SpanKind kind) const {
  const Stat& s = stat(kind);
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.selfNs) /
                            static_cast<double>(s.count);
}

double tickCb(cod::core::CommunicationBackbone& cb, double now, Tracer* tracer,
              std::vector<double>& idleTickNs) {
  if (tracer == nullptr) {
    cb.tick(now);
    return 0.0;
  }
  const std::uint64_t rx0 = cb.transportStats()->packetsReceived;
  tracer->begin(SpanKind::kTick);
  cb.tick(now);
  const double ns = static_cast<double>(tracer->end());
  if (cb.transportStats()->packetsReceived == rx0) idleTickNs.push_back(ns);
  return ns;
}

void WireTap::onSend(cod::net::HostId src, cod::net::HostId dst,
                     std::uint64_t hash, std::size_t size, std::int64_t t,
                     std::uint64_t request) {
  const auto it = publishReturn.find(src);
  if (it != publishReturn.end()) {
    if (it->second.first == request)
      flushWaitUs.push_back(static_cast<double>(t - it->second.second) * 1e-3);
    publishReturn.erase(it);
  }
  inFlight[{src, dst, size, hash}].push_back(t);
}

void WireTap::onReceive(const cod::net::Datagram& d, std::int64_t t) {
  const auto key = std::make_tuple(d.src.host, d.dst.host, d.payload.size(),
                                   fnv1a(kFnvBasis, d.payload));
  const auto it = inFlight.find(key);
  if (it != inFlight.end()) {
    queueWaitUs.push_back(static_cast<double>(t - it->second.front()) * 1e-3);
    it->second.pop_front();
    if (it->second.empty()) inFlight.erase(it);
  }
  if (receivedCount++ % 8 == 0 && captured.size() < 4096)
    captured.push_back(d.payload);
}

void TracedTransport::send(const cod::net::NodeAddr& dst,
                           std::span<const std::uint8_t> bytes) {
  Span span(&tracer_, SpanKind::kTransport);
  const std::int64_t t0 = nowNs();
  inner_->send(dst, bytes);
  tap_.sendNs += nowNs() - t0;
  ++tap_.sendCalls;
  tap_.onSend(localAddress().host, dst.host, fnv1a(kFnvBasis, bytes),
              bytes.size(), t0, tracer_.request());
}

void TracedTransport::broadcast(std::uint16_t port,
                                std::span<const std::uint8_t> bytes) {
  Span span(&tracer_, SpanKind::kTransport);
  const std::int64_t t0 = nowNs();
  inner_->broadcast(port, bytes);
  tap_.sendNs += nowNs() - t0;
  ++tap_.sendCalls;
  const std::uint64_t hash = fnv1a(kFnvBasis, bytes);
  const cod::net::HostId self = localAddress().host;
  for (cod::net::HostId h = 0; h < hostCount_; ++h)
    if (h != self) tap_.onSend(self, h, hash, bytes.size(), t0, tracer_.request());
}

std::optional<cod::net::Datagram> TracedTransport::receive() {
  Span span(&tracer_, SpanKind::kTransport);
  const std::int64_t t0 = nowNs();
  std::optional<cod::net::Datagram> d = inner_->receive();
  const std::int64_t t1 = nowNs();
  tap_.recvNs += t1 - t0;
  ++tap_.recvCalls;
  if (!d) {
    ++tap_.emptyRecvCalls;
  } else {
    d->dst = localAddress();
    tap_.onReceive(*d, t1);
  }
  return d;
}

void TracedTransport::sendv(const cod::net::NodeAddr& dst,
                            std::span<const cod::net::ByteSpan> parts) {
  Span span(&tracer_, SpanKind::kTransport);
  const std::int64_t t0 = nowNs();
  inner_->sendv(dst, parts);
  tap_.sendNs += nowNs() - t0;
  ++tap_.sendCalls;
  std::uint64_t hash = kFnvBasis;
  std::size_t size = 0;
  for (const cod::net::ByteSpan& p : parts) {
    hash = fnv1a(hash, p);
    size += p.size();
  }
  tap_.onSend(localAddress().host, dst.host, hash, size, t0, tracer_.request());
}

// ---- correctness checkers -----------------------------------------------

std::optional<std::string> checkExamResult(const std::string& phase,
                                           double score, double elapsedSec) {
  char got[96];
  std::snprintf(got, sizeof(got), "%s %.1f %.1f", phase.c_str(), score,
                elapsedSec);
  if (std::string(got) == "PASSED 96.0 143.7") return std::nullopt;
  return std::string("exam ended ") + got + ", expected PASSED 96.0 143.7";
}

std::optional<std::string> NewestWinsCheck::deliver(
    std::int64_t seq, const cod::core::AttributeSet& got,
    const cod::core::AttributeSet* expected) {
  if (seq <= last_)
    return fmt("newest-wins sequence went from %.0f to %.0f",
               static_cast<double>(last_), static_cast<double>(seq));
  last_ = seq;
  if (expected == nullptr || !(got == *expected))
    return fmt("values of sequence %.0f differ from those published",
               static_cast<double>(seq));
  ++delivered_;
  return std::nullopt;
}

std::optional<std::string> InOrderCheck::deliver(
    std::int64_t seq, const cod::core::AttributeSet& got,
    const cod::core::AttributeSet& expected) {
  if (seq <= last_)
    return fmt(seq == last_ ? "reliable sequence %.0f released twice"
                            : "reliable sequence %.0f released after %.0f",
               static_cast<double>(seq), static_cast<double>(last_));
  skipped_ += static_cast<std::uint64_t>(seq - last_ - 1);
  last_ = seq;
  if (!(got == expected))
    return fmt("values of reliable sequence %.0f differ from those published",
               static_cast<double>(seq));
  ++delivered_;
  return std::nullopt;
}

std::vector<ControlOutcome> negativeControls() {
  using cod::core::AttributeSet;
  std::vector<ControlOutcome> out;
  auto control = [&](std::string name, bool rejected) {
    out.push_back({std::move(name), rejected});
  };
  control("exam scored 94.0",
          checkExamResult("PASSED", 94.0, 143.7).has_value());
  control("exam failed", checkExamResult("FAILED", 96.0, 143.7).has_value());
  control("exam took 150.0 s",
          checkExamResult("PASSED", 96.0, 150.0).has_value());

  std::vector<AttributeSet> sets;
  for (int i = 0; i < 4; ++i)
    sets.push_back(AttributeSet{{"boomLengthM", 10.0 + i},
                                {"alarmBits", std::int64_t{i}},
                                {"cargoAttached", i % 2 == 0}});
  AttributeSet corrupted = sets[1];
  corrupted.set("boomLengthM", 11.5);

  {
    NewestWinsCheck c;
    c.deliver(0, sets[0], &sets[0]);
    control("newest-wins: corrupted value",
            c.deliver(1, corrupted, &sets[1]).has_value());
  }
  {
    NewestWinsCheck c;
    c.deliver(2, sets[2], &sets[2]);
    control("newest-wins: reordered",
            c.deliver(1, sets[1], &sets[1]).has_value());
  }
  {
    NewestWinsCheck c;
    c.deliver(1, sets[1], &sets[1]);
    control("newest-wins: repeated",
            c.deliver(1, sets[1], &sets[1]).has_value());
  }
  {
    // A dropped update violates nothing but is a failed delivery: 3
    // published, 2 delivered.
    NewestWinsCheck c;
    c.deliver(0, sets[0], &sets[0]);
    c.deliver(2, sets[2], &sets[2]);
    control("newest-wins: dropped", 3 - c.delivered() == 1);
  }
  {
    InOrderCheck c;
    c.deliver(0, sets[0], sets[0]);
    control("in-order: corrupted value",
            c.deliver(1, corrupted, sets[1]).has_value());
  }
  {
    InOrderCheck c;
    c.deliver(0, sets[0], sets[0]);
    c.deliver(2, sets[2], sets[2]);
    control("in-order: reordered", c.deliver(1, sets[1], sets[1]).has_value());
  }
  {
    InOrderCheck c;
    c.deliver(0, sets[0], sets[0]);
    c.deliver(1, sets[1], sets[1]);
    control("in-order: duplicate", c.deliver(1, sets[1], sets[1]).has_value());
  }
  {
    InOrderCheck c;
    c.deliver(0, sets[0], sets[0]);
    c.deliver(1, sets[1], sets[1]);
    const bool clean = !c.deliver(3, sets[3], sets[3]).has_value();
    control("in-order: dropped", clean && c.skipped() == 1 &&
                                     4 - c.delivered() == 1);
  }
  return out;
}

// ---- per-pass helpers ---------------------------------------------------

void addStats(cod::core::CbStats& into, const cod::core::CbStats& s) {
  into.updatesSent += s.updatesSent;
  into.updatesDelivered += s.updatesDelivered;
  into.updatesLocalFastPath += s.updatesLocalFastPath;
  into.reliable.retransmitsSent += s.reliable.retransmitsSent;
  into.reliable.dataFramesSent += s.reliable.dataFramesSent;
  into.reliable.nacksSent += s.reliable.nacksSent;
  into.reliable.sendWindowEvictions += s.reliable.sendWindowEvictions;
  into.reliable.gapsAbandoned += s.reliable.gapsAbandoned;
  into.batch.datagramsCoalesced += s.batch.datagramsCoalesced;
  into.batch.framesCoalesced += s.batch.framesCoalesced;
  into.batch.soloFlushes += s.batch.soloFlushes;
  into.batch.oversizeSends += s.batch.oversizeSends;
}

void fillReliableLayers(const cod::core::CbStats& total, std::size_t episodes,
                        Layers& out) {
  const auto& r = total.reliable;
  const double data = static_cast<double>(r.dataFramesSent);
  out.reliableRetransmitRatio =
      data > 0 ? static_cast<double>(r.retransmitsSent) / data : 0.0;
  out.reliableNacksPer1k =
      data > 0 ? static_cast<double>(r.nacksSent) * 1000.0 / data : 0.0;
  const double n = static_cast<double>(episodes);
  out.reliableWindowEvictions = static_cast<double>(r.sendWindowEvictions) / n;
  out.reliableGapsAbandoned = static_cast<double>(r.gapsAbandoned) / n;
}

double framesPerDatagram(const cod::core::CbStats& total) {
  const auto& b = total.batch;
  const double bare = static_cast<double>(b.soloFlushes + b.oversizeSends);
  const double datagrams = static_cast<double>(b.datagramsCoalesced) + bare;
  return datagrams > 0
             ? (static_cast<double>(b.framesCoalesced) + bare) / datagrams
             : 0.0;
}

std::pair<double, double> probeValueCodec(
    const std::vector<cod::core::AttributeSet>& sets, double budgetSec) {
  if (sets.empty()) return {0.0, 0.0};
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const auto& s : sets) encoded.push_back(s.encode());
  std::uint64_t sink = 0;
  std::uint64_t n = 0;
  std::int64_t t0 = nowNs();
  do {
    for (const auto& s : sets) sink += s.encode().size();
    n += sets.size();
  } while (secondsSince(t0) < budgetSec);
  const double encodeNs = static_cast<double>(nowNs() - t0) / n;
  n = 0;
  t0 = nowNs();
  do {
    for (const auto& b : encoded)
      sink += cod::core::AttributeSet::decode(b)->size();
    n += encoded.size();
  } while (secondsSince(t0) < budgetSec);
  const double decodeNs = static_cast<double>(nowNs() - t0) / n;
  gSink = gSink + sink;
  return {encodeNs, decodeNs};
}

double probeProtocolDecode(
    const std::vector<std::vector<std::uint8_t>>& datagrams,
    double budgetSec) {
  if (datagrams.empty()) return 0.0;
  std::uint64_t sink = 0;
  std::uint64_t n = 0;
  const std::int64_t t0 = nowNs();
  do {
    for (const auto& d : datagrams) {
      const auto msg = cod::core::decode(d);
      sink += msg ? static_cast<std::uint64_t>(msg->type) : 0u;
    }
    n += datagrams.size();
  } while (secondsSince(t0) < budgetSec);
  gSink = gSink + sink;
  return static_cast<double>(nowNs() - t0) / n;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t setupSeed(int variant) {
  return mix(0x5e7u, static_cast<std::uint64_t>(variant));
}

void addViolation(PassResult& r, std::string line) {
  if (r.violations.size() < kMaxViolationLines)
    r.violations.push_back(std::move(line));
}

PlanResult runPlan(double seconds, double nominalEpisodeS,
                   const std::function<double(int)>& probe,
                   const std::function<void(int)>& episode, PassResult& out) {
  constexpr int kProbes = kSetupSeeds * kSetupRepeats;
  const int planned =
      std::max(1, static_cast<int>(std::lround(seconds / nominalEpisodeS)));
  const std::int64_t start = nowNs();
  std::vector<double> all;
  std::vector<double> fastest(kSetupSeeds, 0.0);
  auto probeOnce = [&] {
    const int variant = static_cast<int>(all.size()) % kSetupSeeds;
    const double s = probe(variant);
    if (all.size() < static_cast<std::size_t>(kSetupSeeds) ||
        s < fastest[variant])
      fastest[variant] = s;
    all.push_back(s);
  };
  PlanResult r;
  for (; r.episodes < planned; ++r.episodes) {
    if (r.episodes > 0 && secondsSince(start) > 2.0 * seconds) break;
    const int due = kProbes * (r.episodes + 1) / planned;
    while (static_cast<int>(all.size()) < due) probeOnce();
    episode(r.episodes);
  }
  while (static_cast<int>(all.size()) < kProbes) probeOnce();

  char buf[200];
  std::snprintf(buf, sizeof(buf), "episodes: %d of %d planned%s", r.episodes,
                planned, r.episodes < planned ? " (stopped at twice --seconds)"
                                              : "");
  out.notes.push_back(buf);
  std::sort(all.begin(), all.end());
  std::sort(fastest.begin(), fastest.end());
  r.setupS = percentile(fastest, 50.0);
  std::snprintf(buf, sizeof(buf),
                "set-up: %d seeds x %d: fastest per seed p25 %.6g, p50 %.6g, "
                "p75 %.6g ms; all %zu: p50 %.6g, max %.6g ms",
                kSetupSeeds, kSetupRepeats, percentile(fastest, 25.0) * 1e3,
                r.setupS * 1e3, percentile(fastest, 75.0) * 1e3, all.size(),
                percentile(all, 50.0) * 1e3, all.back() * 1e3);
  out.notes.push_back(buf);
  return r;
}

}  // namespace perfbench
