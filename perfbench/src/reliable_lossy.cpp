// reliable_lossy: eight CBs on a SimNetwork the benchmark drives itself
// (advance, then one tick per CB, per 5 ms slice). Computer 7 publishes
// scenario.status sets as kReliableOrdered at 2000 updates per virtual
// second, evenly spaced, to six subscribers over a link that drops 10% of
// datagrams (seeded). It exercises the CB's reliable windows, NACKs,
// retransmits and in-order release instead of newest-wins. The
// 512-frame send window evicts under this load and a few gaps are
// abandoned; those show up as failed deliveries, as they should.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "math/rng.hpp"
#include "net/simnet.hpp"
#include "sim/object_classes.hpp"

namespace perfbench {

namespace {

using cod::core::AttributeSet;
using cod::core::CommunicationBackbone;
using cod::net::QosClass;

constexpr int kHosts = 8;
constexpr int kPublisher = 6;  // computer 7
constexpr std::array<int, 6> kSubscribers = {0, 1, 2, 4, 5, 7};
constexpr std::uint16_t kCbPort = 1;
constexpr double kSliceSec = 0.005;
constexpr double kUpdateSpacingSec = 1.0 / 2000.0;
constexpr double kLossRate = 0.10;
constexpr double kStreamSec = 20.0;  // virtual seconds published per episode
constexpr double kDrainSec = 3.0;    // virtual seconds to settle afterwards
constexpr std::int64_t kUpdatesPerEpisode = 40000;  // kStreamSec * 2000/s
constexpr int kSlicesPerSegment = 100;  // min-of-N segments of 0.5 virtual s
constexpr std::int64_t kUpdatesPerSegment = 1000;  // 0.5 s * 2000/s
// Published sets are built between segments, a segment ahead, into a ring
// that keeps each for about 0.5 virtual s after the segment that published
// it; releases are checked against it.
constexpr std::int64_t kRing = 2048;
// One episode's wall time on the reference host (4-core x86-64 VM); it
// sets how many episodes a run makes.
constexpr double kNominalEpisodeWallS = 1.1;
// Latency is sampled on every 8th update (all subscribers): ~30k samples
// per episode keep p99.9 resolved without the samples outweighing the rack
// in peak RSS.
constexpr std::int64_t kLatencySampleEvery = 8;

AttributeSet statusSet(std::uint64_t seed, std::int64_t k) {
  cod::math::Rng rng(mix(seed, static_cast<std::uint64_t>(k)));
  cod::sim::ScenarioStatusMsg m;
  m.phase = k % 5;
  m.score = 100.0 - rng.uniform(0.0, 30.0);
  m.elapsedSec = static_cast<double>(k) * kUpdateSpacingSec;
  m.nextWaypoint = k % 9;
  m.lastDeduction = rng.chance(0.5) ? "alarm raised" : "";
  m.revision = k;
  m.deductionCount = k / 50;
  m.lastAnnotation = rng.chance(0.1) ? "cluster: loss alarm" : "";
  m.annotationCount = k / 100;
  return cod::sim::encodeScenarioStatus(m);
}

class LossyEpisode;

class StatusNode final : public cod::core::LogicalProcess {
 public:
  StatusNode(LossyEpisode& ep, int host)
      : LogicalProcess("status-" + std::to_string(host)), ep_(ep), host_(host) {}
  void reflectAttributeValues(const std::string& className,
                              const AttributeSet& attrs,
                              double timestamp) override;

 private:
  LossyEpisode& ep_;
  int host_;
};

struct RunTotals {
  FastestSegments fastest;
  std::vector<double> idleTickNs;
  std::vector<double> flushWaitUs;
  std::vector<std::vector<std::uint8_t>> captured;
  cod::core::CbStats stats;
  std::vector<AttributeSet> probeSets;  // a sample of the published sets
};

class LossyEpisode {
 public:
  LossyEpisode(std::uint64_t seed, Tracer* tracer, PassResult& out,
               RunTotals& totals)
      : seed_(seed), tracer_(tracer), out_(out), totals_(totals), net_(seed) {
    cod::net::LinkModel link;
    link.lossRate = kLossRate;
    net_.setDefaultLink(link);
    for (int h = 0; h < kHosts; ++h) {
      const cod::net::HostId host =
          net_.addHost("computer-" + std::to_string(h + 1));
      std::unique_ptr<cod::net::Transport> t = net_.bind(host, kCbPort);
      if (tracer_ != nullptr)
        t = std::make_unique<TracedTransport>(std::move(t), *tracer_, tap_,
                                              kHosts);
      cbs_.push_back(std::make_unique<CommunicationBackbone>(
          "computer-" + std::to_string(h + 1), std::move(t)));
    }
    for (int h = 0; h < kHosts; ++h) {
      nodes_.push_back(std::make_unique<StatusNode>(*this, h));
      cbs_[h]->attach(*nodes_[h]);
    }
    pub_ = cbs_[kPublisher]->publishObjectClass(
        *nodes_[kPublisher], cod::sim::kClassScenarioStatus,
        QosClass::kReliableOrdered);
    for (const int h : kSubscribers)
      subs_[h] = cbs_[h]->subscribeObjectClass(
          *nodes_[h], cod::sim::kClassScenarioStatus,
          QosClass::kReliableOrdered);
  }

  /// Steps slices until every subscriber has its reliable channel.
  bool connect() {
    for (int pass = 0; pass < 4000; ++pass) {
      slice();
      bool all = cbs_[kPublisher]->channelCount(pub_) == kSubscribers.size();
      for (const int h : kSubscribers) all = all && cbs_[h]->connected(subs_[h]);
      if (all) return true;
    }
    return false;
  }

  void run() {
    start_ = net_.now();
    publishNs_.assign(kUpdatesPerEpisode, 0);
    ring_.resize(kRing);
    const double end = start_ + kStreamSec + kDrainSec;
    FastestSegments& fastest = totals_.fastest;
    std::uint64_t segmentDelivered0 = delivered();
    for (int n = 0; net_.now() < end; ++n) {
      if (n % kSlicesPerSegment == 0) {
        if (n > 0) {
          const std::uint64_t got = delivered();
          fastest.close(got - segmentDelivered0);
          segmentDelivered0 = got;
        }
        prepare();
        fastest.open();
      }
      // Publish every update that fell due since the last slice.
      while (next_ < kUpdatesPerEpisode && dueTime(next_) <= net_.now()) {
        if (tracer_ != nullptr)
          tracer_->setRequest(static_cast<std::uint64_t>(next_));
        const AttributeSet& attrs = published(next_);
        publishNs_[next_] = nowNs();
        {
          Span span(tracer_, SpanKind::kPublish);
          cbs_[kPublisher]->updateAttributeValues(pub_, attrs, dueTime(next_));
        }
        if (tracer_ != nullptr) {
          tap_.publishReturn[kPublisher] = {
              static_cast<std::uint64_t>(next_), nowNs()};
          if (next_ % 400 == 0) totals_.probeSets.push_back(attrs);
        }
        ++next_;
      }
      slice();
    }
    fastest.close(delivered() - segmentDelivered0);
  }

  void onReflect(int host, const AttributeSet& attrs, double timestamp) {
    Span span(tracer_, SpanKind::kReflect);
    const std::int64_t t = nowNs();
    const std::int64_t k =
        std::llround((timestamp - start_) / kUpdateSpacingSec);
    if (k < 0 || k >= next_) {
      addViolation(out_, "reliable_lossy: release of an unpublished update");
      return;
    }
    if (k % kLatencySampleEvery == 0) {
      Segment& seg = totals_.fastest.current();
      seg.latencyUs.push_back(static_cast<double>(t - publishNs_[k]) * 1e-3);
      seg.vlatencyMs.push_back((net_.now() - timestamp) * 1e3);
    }
    if (auto bad = checks_[host].deliver(k, attrs, published(k)))
      addViolation(out_, "reliable_lossy: computer " +
                             std::to_string(host + 1) + ": " + *bad);
  }

  std::uint64_t attempted() const {
    return static_cast<std::uint64_t>(next_) * kSubscribers.size();
  }
  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const InOrderCheck& c : checks_) n += c.delivered();
    return n;
  }
  std::uint64_t wireBytes() const { return net_.stats().bytesSent; }
  std::uint64_t rebuilt() const { return rebuilt_; }
  double virtualNow() const { return net_.now(); }

  void collect() {
    for (const auto& cb : cbs_) addStats(totals_.stats, cb->stats());
    totals_.flushWaitUs.insert(totals_.flushWaitUs.end(),
                               tap_.flushWaitUs.begin(),
                               tap_.flushWaitUs.end());
    for (auto& d : tap_.captured)
      if (totals_.captured.size() < 4096) totals_.captured.push_back(std::move(d));
  }

 private:
  double dueTime(std::int64_t k) const {
    return start_ + static_cast<double>(k) * kUpdateSpacingSec;
  }

  /// Builds the sets the next segment publishes. It runs between segments,
  /// so the timed work holds no benchmark data generation.
  void prepare() {
    // A few more than a segment's worth: the slice clock is a float sum.
    const std::int64_t upTo =
        std::min(kUpdatesPerEpisode, next_ + kUpdatesPerSegment + 16);
    for (; prepared_ < upTo; ++prepared_)
      ring_[prepared_ % kRing] = {prepared_, statusSet(seed_, prepared_)};
  }

  /// The set published as update k. One whose ring slot was reused already
  /// (a release over 0.5 virtual s late) is built again and counted.
  const AttributeSet& published(std::int64_t k) {
    const Prepared& p = ring_[k % kRing];
    if (p.k == k) return p.attrs;
    ++rebuilt_;
    late_ = statusSet(seed_, k);
    return late_;
  }

  void slice() {
    {
      Span span(tracer_, SpanKind::kAdvance);
      net_.advance(kSliceSec);
    }
    for (auto& cb : cbs_) tickCb(*cb, net_.now(), tracer_, totals_.idleTickNs);
  }

  std::uint64_t seed_;
  Tracer* tracer_;
  PassResult& out_;
  RunTotals& totals_;
  WireTap tap_;
  cod::net::SimNetwork net_;
  // CBs before LPs: an LP detaches from its CB when destroyed, so the LPs
  // must go first.
  std::vector<std::unique_ptr<CommunicationBackbone>> cbs_;
  std::vector<std::unique_ptr<StatusNode>> nodes_;
  cod::core::PublicationHandle pub_ = cod::core::kInvalidHandle;
  std::array<cod::core::SubscriptionHandle, kHosts> subs_{};
  std::array<InOrderCheck, kHosts> checks_;
  std::vector<std::int64_t> publishNs_;
  struct Prepared {
    std::int64_t k = -1;
    AttributeSet attrs;
  };
  std::vector<Prepared> ring_;
  std::int64_t prepared_ = 0;
  AttributeSet late_;
  std::uint64_t rebuilt_ = 0;
  double start_ = 0.0;
  std::int64_t next_ = 0;
};

void StatusNode::reflectAttributeValues(const std::string& /*className*/,
                                        const AttributeSet& attrs,
                                        double timestamp) {
  ep_.onReflect(host_, attrs, timestamp);
}

}  // namespace

PassResult runReliableLossy(std::uint64_t seed, double seconds,
                            Tracer* tracer) {
  PassResult out;
  out.traffic = "SimNetwork (virtual time, 10% datagram loss)";
  RunTotals totals;
  std::uint64_t delivered = 0, wireBytes = 0, rebuilt = 0;
  double episodeVirtualS = 0.0;

  // Set-up probes run untraced.
  auto buildRack = [&](std::uint64_t rackSeed, Tracer* rackTracer) {
    auto ep =
        std::make_unique<LossyEpisode>(rackSeed, rackTracer, out, totals);
    if (!ep->connect())
      throw std::runtime_error("reliable_lossy: subscriptions did not connect");
    return ep;
  };
  auto probe = [&](int variant) {
    const std::int64_t t0 = nowNs();
    const std::unique_ptr<LossyEpisode> ep =
        buildRack(setupSeed(variant), nullptr);
    return secondsSince(t0);
  };
  auto episode = [&](int) {
    std::unique_ptr<LossyEpisode> ep = buildRack(seed, tracer);
    const std::uint64_t bytes0 = ep->wireBytes();
    const double virtual0 = ep->virtualNow();
    ep->run();
    episodeVirtualS = ep->virtualNow() - virtual0;
    if (!totals.fastest.endEpisode())
      addViolation(out, "reliable_lossy: episodes differ in length");
    wireBytes += ep->wireBytes() - bytes0;
    out.attempted += ep->attempted();
    delivered += ep->delivered();
    rebuilt += ep->rebuilt();
    if (tracer != nullptr) ep->collect();
  };
  const PlanResult plan =
      runPlan(seconds, kNominalEpisodeWallS, probe, episode, out);
  out.failed = out.attempted - delivered;

  EndToEnd& e = out.e2e;
  e.setupS = plan.setupS;
  e.realtimeX = episodeVirtualS / totals.fastest.wallS();
  e.updatesPerS = static_cast<double>(totals.fastest.delivered()) /
                  totals.fastest.wallS();
  e.wireBytesPerUpdate =
      static_cast<double>(wireBytes) / static_cast<double>(delivered);
  e.deliveryRatio =
      static_cast<double>(delivered) / static_cast<double>(out.attempted);
  const LatencySummary lat = totals.fastest.latency();
  const LatencySummary vlat = totals.fastest.vlatency();
  e.latencyP50Us = lat.p50;
  e.latencyP99Us = lat.p99;
  e.vlatencyP50Ms = vlat.p50;
  e.vlatencyP99Ms = vlat.p99;
  out.notes.push_back("each episode: 20 virtual s of publishing + 3 s to "
                      "settle; late releases checked against a rebuilt set: " +
                      std::to_string(rebuilt));
  out.notes.push_back(describe("status publish->in-order release", lat, "us"));
  out.notes.push_back(
      describe("status publish->in-order release, virtual", vlat, "ms"));

  if (tracer != nullptr) {
    Layers& l = out.layers;
    std::tie(l.valueEncodeNs, l.valueDecodeNs) =
        probeValueCodec(totals.probeSets, 0.05);
    l.protocolDecodeNs = probeProtocolDecode(totals.captured, 0.05);
    l.cbPublishNs = tracer->meanSelfNs(SpanKind::kPublish);
    l.cbTickSelfNs = tracer->meanSelfNs(SpanKind::kTick);
    l.cbIdleTickNs =
        totals.idleTickNs.empty() ? 0.0 : median(totals.idleTickNs);
    l.cbFlushWaitUs =
        totals.flushWaitUs.empty() ? 0.0 : median(totals.flushWaitUs);
    l.batchFramesPerDatagram = framesPerDatagram(totals.stats);
    fillReliableLayers(totals.stats, static_cast<std::size_t>(plan.episodes),
                       l);
    l.simnetAdvanceNs =
        static_cast<double>(tracer->stat(SpanKind::kAdvance).totalNs) /
        static_cast<double>(tracer->stat(SpanKind::kAdvance).count);
  }
  return out;
}

}  // namespace perfbench
