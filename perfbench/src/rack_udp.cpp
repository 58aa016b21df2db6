// rack_udp: eight CBs, one per rack computer, each on its own UdpTransport
// over 127.0.0.1, replaying E10's object-class mix (src/sim/*_module.cpp)
// without rendering. Closed loop: a round publishes what one 20 ms E10
// step publishes, then ticks all eight CBs once, and the next round
// starts right after. The CBs tick on the E10 schedule's virtual clock
// (round r ends at (r + 1) * 20 ms), so protocol timers fire per round,
// not per wall second, and the traffic mix is the same on any host.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "bench.hpp"
#include "math/rng.hpp"
#include "net/udp.hpp"
#include "sim/object_classes.hpp"

namespace perfbench {

namespace {

using cod::core::AttributeSet;
using cod::core::CommunicationBackbone;
using cod::net::QosClass;

constexpr int kHosts = 8;
constexpr std::uint16_t kCbPort = 1;
constexpr double kRoundSec = 0.02;
constexpr int kRoundsPerEpisode = 3000;
constexpr int kRoundsPerSegment = 100;  // min-of-N segments
// One episode's wall time on the reference host (4-core x86-64 VM); it
// sets how many episodes a run makes.
constexpr double kNominalEpisodeWallS = 0.32;
constexpr int kRing = 256;  // rounds of published values kept for checks

// Rack positions (simulator_app.hpp), zero-based: 0-2 displays, 3 sync
// server, 4 dashboard, 5 platform, 6 dynamics + scenario, 7 instructor.
enum Stream { kState, kControls, kReady0, kReady1, kReady2, kSwap, kStatus,
              kStreams };

struct StreamDef {
  const std::string* className;
  int publisher;
  int hz;
  QosClass qos;
  std::vector<int> remoteSubscribers;
};

const std::array<StreamDef, kStreams>& streams() {
  using namespace cod::sim;
  static const std::array<StreamDef, kStreams> defs = {{
      {&kClassCraneState, 6, 50, QosClass::kBestEffort, {0, 1, 2, 4, 5, 7}},
      {&kClassCraneControls, 4, 50, QosClass::kBestEffort, {6, 7}},
      {&kClassSyncReady, 0, 16, QosClass::kBestEffort, {3}},
      {&kClassSyncReady, 1, 16, QosClass::kBestEffort, {3}},
      {&kClassSyncReady, 2, 16, QosClass::kBestEffort, {3}},
      {&kClassSyncSwap, 3, 16, QosClass::kBestEffort, {0, 1, 2}},
      {&kClassScenarioStatus, 6, 10, QosClass::kReliableOrdered, {4, 7}},
  }};
  return defs;
}

/// True when a period of a `hz` stream ends inside round r, i.e. E10's
/// schedule publishes it in that 20 ms step.
bool due(int r, int hz) {
  return (2 * hz * r) / 100 != (2 * hz * (r + 1)) / 100;
}
/// Publish index of a stream at a round where it is due.
std::int64_t publishIndex(int r, int hz) {
  return (2 * hz * (r + 1)) / 100 - 1;
}

AttributeSet makeSet(Stream s, std::uint64_t seed, int r) {
  cod::math::Rng rng(mix(seed, static_cast<std::uint64_t>(s) * 1000003u +
                                   static_cast<std::uint64_t>(r)));
  const auto& def = streams()[s];
  const std::int64_t index = publishIndex(r, def.hz);
  switch (s) {
    case kState: {
      cod::sim::CraneStateMsg m;
      cod::crane::CraneState& st = m.state;
      st.slewAngleRad = rng.uniform(-3.1, 3.1);
      st.slewRateRad = rng.uniform(-0.2, 0.2);
      st.boomPitchRad = rng.uniform(0.1, 1.3);
      st.boomPitchRate = rng.uniform(-0.1, 0.1);
      st.boomLengthM = rng.uniform(9.0, 26.0);
      st.boomLengthRate = rng.uniform(-0.8, 0.8);
      st.cableLengthM = rng.uniform(0.5, 30.0);
      st.cableRate = rng.uniform(-1.2, 1.2);
      st.hookLoadKg = rng.uniform(0.0, 2000.0);
      st.cargoAttached = rng.chance(0.5);
      st.engineOn = true;
      st.engineRpm = rng.uniform(700.0, 2200.0);
      st.carrierPosition = {rng.uniform(-50, 50), rng.uniform(-50, 50), 0.0};
      st.carrierHeadingRad = rng.uniform(-3.1, 3.1);
      st.carrierPitchRad = rng.uniform(-0.05, 0.05);
      st.carrierRollRad = rng.uniform(-0.05, 0.05);
      st.carrierSpeedMps = rng.uniform(0.0, 4.0);
      m.boomTip = {rng.uniform(-60, 60), rng.uniform(-60, 60),
                   rng.uniform(0, 30)};
      m.hookPosition = {rng.uniform(-60, 60), rng.uniform(-60, 60),
                        rng.uniform(0, 30)};
      m.cargoPosition = {rng.uniform(-60, 60), rng.uniform(-60, 60),
                         rng.uniform(0, 30)};
      m.workingRadiusM = rng.uniform(2.0, 25.0);
      m.momentUtilisation = rng.uniform(0.0, 1.0);
      m.rolloverIndex = rng.uniform(0.0, 1.0);
      m.alarmBits = static_cast<std::uint32_t>(rng.uniformInt(0, 15));
      m.simTimeSec = r * kRoundSec;
      m.windSpeedMps = rng.uniform(0.0, 12.0);
      m.outriggerProgress = 1.0;
      return cod::sim::encodeCraneState(m);
    }
    case kControls: {
      cod::crane::CraneControls c;
      c.steering = rng.uniform(-1, 1);
      c.throttle = rng.uniform(0, 1);
      c.brake = rng.uniform(0, 1);
      c.reverse = rng.chance(0.1);
      c.ignition = true;
      c.joystickSlew = rng.uniform(-1, 1);
      c.joystickLuff = rng.uniform(-1, 1);
      c.joystickTelescope = rng.uniform(-1, 1);
      c.joystickHoist = rng.uniform(-1, 1);
      c.hookLatch = rng.chance(0.5);
      c.outriggersDeploy = true;
      return cod::sim::encodeControls(c);
    }
    case kReady0:
    case kReady1:
    case kReady2:
      return cod::sim::encodeSyncReady({s - kReady0, index});
    case kSwap:
      return cod::sim::encodeSyncSwap({index});
    case kStatus: {
      cod::sim::ScenarioStatusMsg m;
      m.phase = index % 5;
      m.score = 100.0 - rng.uniform(0.0, 30.0);
      m.elapsedSec = r * kRoundSec;
      m.nextWaypoint = index % 9;
      m.lastDeduction = rng.chance(0.5) ? "alarm raised" : "";
      m.revision = index;
      m.deductionCount = index / 50;
      return cod::sim::encodeScenarioStatus(m);
    }
    default:
      return {};
  }
}

struct RunTotals {
  FastestSegments fastest;
  std::vector<double> idleTickNs;
  WireTap tap;  // merged from the per-episode taps
  cod::core::CbStats stats;
  std::vector<AttributeSet> probeSets;  // a window of published sets
};

class RackEpisode;

class RackNode final : public cod::core::LogicalProcess {
 public:
  RackNode(RackEpisode& ep, int host)
      : LogicalProcess("rack-" + std::to_string(host)), ep_(ep), host_(host) {}
  void reflectAttributeValues(const std::string& className,
                              const AttributeSet& attrs,
                              double timestamp) override;

 private:
  RackEpisode& ep_;
  int host_;
};

class RackEpisode {
 public:
  RackEpisode(std::uint64_t seed, std::uint16_t basePort, Tracer* tracer,
              PassResult& out, RunTotals& totals)
      : seed_(seed), tracer_(tracer), out_(out), totals_(totals) {
    cod::net::UdpConfig ucfg;
    ucfg.basePort = basePort;
    ucfg.portsPerHost = 2;
    ucfg.maxHosts = kHosts;
    for (int h = 0; h < kHosts; ++h) {
      std::unique_ptr<cod::net::Transport> t =
          std::make_unique<cod::net::UdpTransport>(ucfg, h, kCbPort);
      if (tracer_ != nullptr)
        t = std::make_unique<TracedTransport>(std::move(t), *tracer_, tap_,
                                              kHosts);
      cbs_.push_back(std::make_unique<CommunicationBackbone>(
          "computer-" + std::to_string(h + 1), std::move(t)));
    }
    for (int h = 0; h < kHosts; ++h) {
      nodes_.push_back(std::make_unique<RackNode>(*this, h));
      cbs_[h]->attach(*nodes_[h]);
    }
    // Publications first, so the first discovery broadcast finds them.
    for (int s = 0; s < kStreams; ++s) {
      const StreamDef& d = streams()[s];
      pubs_[s] = cbs_[d.publisher]->publishObjectClass(
          *nodes_[d.publisher], *d.className, d.qos);
    }
    for (int h = 0; h < kHosts; ++h) {
      for (const std::string* cls :
           {&cod::sim::kClassCraneState, &cod::sim::kClassCraneControls,
            &cod::sim::kClassSyncReady, &cod::sim::kClassSyncSwap,
            &cod::sim::kClassScenarioStatus}) {
        int sources = 0;
        QosClass qos = QosClass::kBestEffort;
        for (const StreamDef& d : streams())
          if (d.className == cls &&
              std::count(d.remoteSubscribers.begin(),
                         d.remoteSubscribers.end(), h)) {
            ++sources;
            qos = d.qos;
          }
        const bool localState = h == 6 && cls == &cod::sim::kClassCraneState;
        if (sources == 0 && !localState) continue;
        const auto sub = cbs_[h]->subscribeObjectClass(*nodes_[h], *cls, qos);
        if (sources > 0) subs_.push_back({h, sub, sources});
      }
    }
  }

  /// Ticks until every remote subscription has all its publishers.
  bool connect() {
    for (int pass = 0; pass < 4000; ++pass) {
      for (auto& cb : cbs_) cb->tick(clock_);
      clock_ += 0.005;
      if (connected()) return true;
    }
    return false;
  }

  void run(int rounds) {
    base_ = clock_;
    FastestSegments& fastest = totals_.fastest;
    std::uint64_t segmentDelivered0 = deliveredRemote();
    for (int r = 0; r < rounds; ++r) {
      if (r % kRoundsPerSegment == 0) {
        if (r > 0) {
          const std::uint64_t delivered = deliveredRemote();
          fastest.close(delivered - segmentDelivered0);
          segmentDelivered0 = delivered;
        }
        prepare(r, std::min(rounds, r + kRoundsPerSegment));
        fastest.open();
      }
      if (tracer_ != nullptr) tracer_->setRequest(static_cast<std::uint64_t>(r));
      const double ts = base_ + r * kRoundSec;
      for (int s = 0; s < kStreams; ++s) {
        const StreamDef& d = streams()[s];
        if (!due(r, d.hz)) continue;
        Slot& slot = ring_[s][r % kRing];
        attempted_ += d.remoteSubscribers.size();
        CommunicationBackbone& cb = *cbs_[d.publisher];
        slot.publishNs = nowNs();
        {
          Span span(tracer_, SpanKind::kPublish);
          cb.updateAttributeValues(pubs_[s], slot.attrs, ts);
        }
        if (tracer_ != nullptr)
          tap_.publishReturn[static_cast<cod::net::HostId>(d.publisher)] = {
              static_cast<std::uint64_t>(r), nowNs()};
      }
      tickAll(ts + kRoundSec);
    }
    // Let the last round's updates land.
    const double end = base_ + rounds * kRoundSec;
    for (int pass = 1; pass <= 3; ++pass) tickAll(end + pass * 0.005);
    fastest.close(deliveredRemote() - segmentDelivered0);
  }

  void onReflect(int host, const std::string& className,
                 const AttributeSet& attrs, double timestamp) {
    Span span(tracer_, SpanKind::kReflect);
    const std::int64_t t = nowNs();
    const int r = static_cast<int>(std::llround((timestamp - base_) / kRoundSec));
    int s = kStreams;
    for (int i = 0; i < kStreams; ++i)
      if (*streams()[i].className == className) {
        s = i;
        break;
      }
    if (s == kReady0) s += static_cast<int>(attrs.getInt("channel"));
    if (s >= kStreams || r < 0) {
      addViolation(out_, "rack_udp: reflection of unknown stream " + className);
      return;
    }
    const Slot& slot = ring_[s][r % kRing];
    const AttributeSet* expected = slot.round == r ? &slot.attrs : nullptr;
    const bool local = host == streams()[s].publisher;
    if (s == kState && !local) {
      Segment& seg = totals_.fastest.current();
      seg.latencyUs.push_back(static_cast<double>(t - slot.publishNs) * 1e-3);
      seg.vlatencyMs.push_back((tickClock_ - timestamp) * 1e3);
    }
    std::optional<std::string> bad;
    if (streams()[s].qos == QosClass::kReliableOrdered) {
      if (expected == nullptr) {
        bad = "reliable update of round " + std::to_string(r) +
              " no longer on record";
      } else {
        bad = inOrder_[host][s].deliver(publishIndex(r, streams()[s].hz),
                                        attrs, *expected);
      }
    } else {
      bad = (local ? localCheck_ : newestWins_[host][s])
                .deliver(r, attrs, expected);
    }
    if (bad) {
      addViolation(out_, "rack_udp: computer " + std::to_string(host + 1) +
                             " " + className + ": " + *bad);
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t deliveredRemote() const {
    std::uint64_t n = 0;
    for (int h = 0; h < kHosts; ++h)
      for (int s = 0; s < kStreams; ++s)
        n += newestWins_[h][s].delivered() + inOrder_[h][s].delivered();
    return n;
  }
  std::uint64_t wireBytes() const {
    std::uint64_t n = 0;
    for (const auto& cb : cbs_) n += cb->transportStats()->bytesSent;
    return n;
  }
  /// Adds this rack's counters and trace observations to the run totals.
  void collect() {
    for (const auto& cb : cbs_) addStats(totals_.stats, cb->stats());
    WireTap& t = totals_.tap;
    t.sendNs += tap_.sendNs;
    t.sendCalls += tap_.sendCalls;
    t.recvNs += tap_.recvNs;
    t.recvCalls += tap_.recvCalls;
    t.emptyRecvCalls += tap_.emptyRecvCalls;
    t.flushWaitUs.insert(t.flushWaitUs.end(), tap_.flushWaitUs.begin(),
                         tap_.flushWaitUs.end());
    t.queueWaitUs.insert(t.queueWaitUs.end(), tap_.queueWaitUs.begin(),
                         tap_.queueWaitUs.end());
    for (auto& d : tap_.captured)
      if (t.captured.size() < 4096) t.captured.push_back(std::move(d));
    totals_.probeSets.clear();
    for (const auto& row : ring_)
      for (int k = 0; k < 50; ++k)
        if (row[k].round >= 0) totals_.probeSets.push_back(row[k].attrs);
  }

 private:
  struct Slot {
    int round = -1;
    AttributeSet attrs;
    std::int64_t publishNs = 0;
  };
  struct Sub {
    int host;
    cod::core::SubscriptionHandle handle;
    int sources;
  };

  /// Builds the sets rounds [from, to) will publish. It runs between
  /// segments, so the timed work holds no benchmark data generation.
  void prepare(int from, int to) {
    for (int r = from; r < to; ++r)
      for (int s = 0; s < kStreams; ++s) {
        if (!due(r, streams()[s].hz)) continue;
        Slot& slot = ring_[s][r % kRing];
        slot.round = r;
        slot.attrs = makeSet(static_cast<Stream>(s), seed_, r);
      }
  }

  bool connected() const {
    for (const Sub& s : subs_)
      if (cbs_[s.host]->sourceCount(s.handle) <
          static_cast<std::size_t>(s.sources))
        return false;
    for (int s = 0; s < kStreams; ++s) {
      const StreamDef& d = streams()[s];
      if (cbs_[d.publisher]->channelCount(pubs_[s]) <
          d.remoteSubscribers.size())
        return false;
    }
    return true;
  }

  void tickAll(double now) {
    tickClock_ = now;
    for (auto& cb : cbs_) tickCb(*cb, now, tracer_, totals_.idleTickNs);
  }

  std::uint64_t seed_;
  Tracer* tracer_;
  PassResult& out_;
  RunTotals& totals_;
  WireTap tap_;
  double clock_ = 0.0;      // CB clock during set-up
  double base_ = 0.0;       // virtual time of round 0
  double tickClock_ = 0.0;  // clock of the tick in progress
  std::uint64_t attempted_ = 0;
  // CBs before LPs: an LP detaches from its CB when destroyed, so the LPs
  // must go first.
  std::vector<std::unique_ptr<CommunicationBackbone>> cbs_;
  std::vector<std::unique_ptr<RackNode>> nodes_;
  std::array<cod::core::PublicationHandle, kStreams> pubs_{};
  std::vector<Sub> subs_;
  std::array<std::array<Slot, kRing>, kStreams> ring_;
  std::array<std::array<NewestWinsCheck, kStreams>, kHosts> newestWins_;
  std::array<std::array<InOrderCheck, kStreams>, kHosts> inOrder_;
  NewestWinsCheck localCheck_;
};

void RackNode::reflectAttributeValues(const std::string& className,
                                      const AttributeSet& attrs,
                                      double timestamp) {
  ep_.onReflect(host_, className, attrs, timestamp);
}

}  // namespace

PassResult runRackUdp(std::uint64_t seed, double seconds, Tracer* tracer) {
  PassResult out;
  out.traffic = "loopback UDP (127.0.0.1)";
  RunTotals totals;
  std::uint64_t delivered = 0, wireBytes = 0;

  // A rack on fresh ephemeral ports, connected. Set-up probes run untraced.
  auto buildRack = [&](std::uint64_t rackSeed, Tracer* rackTracer) {
    std::unique_ptr<RackEpisode> rack;
    for (int attempt = 0; !rack; ++attempt) {
      try {
        const std::uint16_t base = cod::net::pickEphemeralBasePort(
            static_cast<std::uint16_t>(kHosts * 2));
        rack = std::make_unique<RackEpisode>(rackSeed, base, rackTracer,
                                             out, totals);
      } catch (const std::system_error&) {
        if (attempt == 4) throw;  // a port raced away five times
      }
    }
    if (!rack->connect())
      throw std::runtime_error("rack_udp: subscriptions did not connect");
    return rack;
  };
  auto probe = [&](int variant) {
    const std::int64_t t0 = nowNs();
    const std::unique_ptr<RackEpisode> rack =
        buildRack(setupSeed(variant), nullptr);
    return secondsSince(t0);
  };
  auto episode = [&](int) {
    std::unique_ptr<RackEpisode> rack = buildRack(seed, tracer);
    const std::uint64_t bytes0 = rack->wireBytes();
    rack->run(kRoundsPerEpisode);
    if (!totals.fastest.endEpisode())
      addViolation(out, "rack_udp: episodes differ in length");
    wireBytes += rack->wireBytes() - bytes0;
    out.attempted += rack->attempted();
    delivered += rack->deliveredRemote();
    if (tracer != nullptr) rack->collect();
  };
  const PlanResult plan =
      runPlan(seconds, kNominalEpisodeWallS, probe, episode, out);
  out.failed = out.attempted - delivered;

  EndToEnd& e = out.e2e;
  e.setupS = plan.setupS;
  e.realtimeX = kRoundsPerEpisode * kRoundSec / totals.fastest.wallS();
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
  out.notes.push_back("each episode: " + std::to_string(kRoundsPerEpisode) +
                      " rounds");
  out.notes.push_back(describe("crane.state publish->reflect", lat, "us"));
  out.notes.push_back(
      describe("crane.state publish->reflect, E10 schedule time", vlat, "ms"));

  if (tracer != nullptr) {
    Layers& l = out.layers;
    std::tie(l.valueEncodeNs, l.valueDecodeNs) =
        probeValueCodec(totals.probeSets, 0.05);
    l.valueCraneStateBytes =
        static_cast<double>(makeSet(kState, seed, 0).encode().size());
    l.protocolDecodeNs = probeProtocolDecode(totals.tap.captured, 0.05);
    l.cbPublishNs = tracer->meanSelfNs(SpanKind::kPublish);
    l.cbTickSelfNs = tracer->meanSelfNs(SpanKind::kTick);
    l.cbIdleTickNs = totals.idleTickNs.empty() ? 0.0 : median(totals.idleTickNs);
    std::vector<double>& fw = totals.tap.flushWaitUs;
    l.cbFlushWaitUs = fw.empty() ? 0.0 : median(fw);
    l.batchFramesPerDatagram = framesPerDatagram(totals.stats);
    const WireTap& t = totals.tap;
    l.udpSendNs = static_cast<double>(t.sendNs) / static_cast<double>(t.sendCalls);
    l.udpRecvNs = static_cast<double>(t.recvNs) / static_cast<double>(t.recvCalls);
    l.udpEmptyRecvRatio = static_cast<double>(t.emptyRecvCalls) /
                          static_cast<double>(t.recvCalls);
    l.udpQueueWaitUs =
        t.queueWaitUs.empty() ? 0.0 : median(totals.tap.queueWaitUs);
    fillReliableLayers(totals.stats, static_cast<std::size_t>(plan.episodes),
                       l);
  }
  return out;
}

}  // namespace perfbench
