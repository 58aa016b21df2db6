// e10_exam: the paper's own scenario. The full 8-computer
// CraneSimulatorApp runs the careful trainee's licensure exam on
// compactCourse() over SimNetwork in virtual time, as bench_scenario does.
// The exam loop is CraneSimulatorApp::runExam / CodCluster::step written
// out slice by slice (same arithmetic, same call order), so the
// benchmark can time each tick and watch crane.state cross the rack.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "bench.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "sim/simulator_app.hpp"

namespace perfbench {

namespace {

using cod::sim::CraneSimulatorApp;

// Rack positions (simulator_app.hpp): computers 1-3 displays, 4 sync
// server, 5 dashboard, 6 platform, 7 dynamics + scenario, 8 instructor.
constexpr std::array<int, 8> kRoleOfCb = {0, 0, 0, 1, 2, 3, 4, 5};
constexpr std::size_t kDynamicsCb = 6;
constexpr std::size_t kInstructorCb = 7;
constexpr double kExamMaxSec = 600.0;
constexpr double kStepSec = 0.1;      // runExam's step
constexpr int kStepsPerSegment = 10;  // min-of-N segments of 1 virtual s
// One exam's wall time on the reference host (4-core x86-64 VM, about
// 45x real time); it sets how many exams a run makes.
constexpr double kNominalExamWallS = 3.3;
const double kDynamicsStepSec = cod::sim::DynamicsModule::Config{}.fixedDtSec;

/// Watches crane.state cross from computer 7 to the instructor station
/// (computer 8). Publishes show as dynamics().simTime() steps after
/// computer 7's tick, reflections as stateUpdatesSeen() steps after
/// computer 8's. On this lossless, in-order LAN the n-th reflection is the
/// n-th publish.
class CraneStateWatch {
 public:
  explicit CraneStateWatch(CraneSimulatorApp& app)
      : app_(app),
        lastSimTime_(app.dynamics().simTime()),
        lastSeen_(app.instructor().stateUpdatesSeen()) {}

  void afterDynamicsTick() {
    const double simTime = app_.dynamics().simTime();
    const auto steps = std::llround((simTime - lastSimTime_) / kDynamicsStepSec);
    const std::int64_t t = nowNs();
    for (long long k = 1; k <= steps; ++k)
      inFlight_.push_back({lastSimTime_ + (simTime - lastSimTime_) *
                                              static_cast<double>(k) /
                                              static_cast<double>(steps),
                           t});
    lastSimTime_ = simTime;
  }

  /// Records the latencies of this slice's reflections into `into`; false
  /// if more reflections than publishes showed up.
  bool afterInstructorTick(double now, Segment& into) {
    const std::uint64_t seen = app_.instructor().stateUpdatesSeen();
    std::uint64_t fresh = seen - lastSeen_;
    lastSeen_ = seen;
    // The first slice reflects what was published before the watch began.
    if (first_) fresh = 0;
    first_ = false;
    const bool consistent = fresh <= inFlight_.size();
    fresh = std::min<std::uint64_t>(fresh, inFlight_.size());
    const std::int64_t t = nowNs();
    for (std::uint64_t k = 0; k < fresh; ++k) {
      into.latencyUs.push_back(
          static_cast<double>(t - inFlight_.front().wallNs) * 1e-3);
      into.vlatencyMs.push_back((now - inFlight_.front().simTimeSec) * 1e3);
      inFlight_.pop_front();
    }
    return consistent;
  }

 private:
  struct Published {
    double simTimeSec;
    std::int64_t wallNs;
  };
  CraneSimulatorApp& app_;
  std::deque<Published> inFlight_;
  double lastSimTime_;
  std::uint64_t lastSeen_;
  bool first_ = true;
};

std::string fingerprint(const cod::scenario::ScoreSheet& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %.17g %.17g",
                cod::scenario::phaseName(s.phase), s.total, s.elapsedSec);
  std::string f = buf;
  for (const auto& d : s.deductions) {
    std::snprintf(buf, sizeof(buf), " [%.17g@%.17g %s]", d.points, d.timeSec,
                  d.reason.c_str());
    f += buf;
  }
  return f;
}

/// Sum of remote updates sent / delivered over the rack.
std::pair<std::uint64_t, std::uint64_t> remoteCounts(cod::core::CodCluster& c) {
  std::uint64_t sent = 0, delivered = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const cod::core::CbStats& s = c.cb(i).stats();
    sent += s.updatesSent;
    delivered += s.updatesDelivered - s.updatesLocalFastPath;
  }
  return {sent, delivered};
}

/// The E10 rack on `seed`, wired up: CraneSimulatorApp construction plus
/// waitUntilWired, what setup_s times.
std::unique_ptr<CraneSimulatorApp> buildRack(std::uint64_t seed,
                                             PassResult& out) {
  CraneSimulatorApp::Config cfg;
  cfg.course = cod::scenario::compactCourse();
  cfg.operatorProfile = cod::scenario::OperatorProfile::careful();
  cfg.fbWidth = 48;
  cfg.fbHeight = 36;
  cfg.cluster.seed = seed;
  auto app = std::make_unique<CraneSimulatorApp>(cfg);
  if (!app->waitUntilWired(10.0))
    addViolation(out, "e10_exam: rack did not wire up within 10 virtual s");
  return app;
}

double renderProbeUs(CraneSimulatorApp& app, double budgetSec) {
  const cod::crane::CraneState& s = app.dynamics().craneState();
  cod::render::SurroundRig rig;
  rig.setPose(app.dynamics().kinematics().cabEye(s), s.carrierOrientation());
  cod::render::Rasterizer raster;
  cod::render::Framebuffer fb(app.config().fbWidth, app.config().fbHeight);
  std::vector<double> us;
  const std::int64_t t0 = nowNs();
  do {
    const std::int64_t f0 = nowNs();
    fb.clear();
    raster.render(app.display(1).scene(), rig.channel(1), fb);
    us.push_back(static_cast<double>(nowNs() - f0) * 1e-3);
  } while (secondsSince(t0) < budgetSec);
  return median(us);
}

}  // namespace

PassResult runE10Exam(std::uint64_t seed, double seconds, Tracer* tracer) {
  PassResult out;
  out.traffic = "SimNetwork (virtual time)";
  FastestSegments fastest;
  double examVirtualS = 0.0;
  std::uint64_t examBytes = 0, examDelivered = 0;
  std::vector<double> idleTickNs;
  std::array<double, 6> roleTickNs{};
  double tracedVirtualS = 0.0;
  cod::core::CbStats rackStats;
  std::vector<cod::core::AttributeSet> probeSets;
  double renderUs = 0.0;

  auto probe = [&](int variant) {
    const std::int64_t t0 = nowNs();
    const std::unique_ptr<CraneSimulatorApp> app =
        buildRack(setupSeed(variant), out);
    return secondsSince(t0);
  };
  auto episode = [&](int) {
    std::unique_ptr<CraneSimulatorApp> app = buildRack(seed, out);
    cod::core::CodCluster& cluster = app->cluster();
    cod::net::SimNetwork& net = cluster.network();
    const double tickSec = app->config().cluster.tickIntervalSec;
    const std::uint64_t delivered0 = remoteCounts(cluster).second;
    const std::uint64_t bytes0 = net.stats().bytesSent;
    const double virtual0 = net.now();
    CraneStateWatch watch(*app);

    std::uint64_t segmentDelivered0 = delivered0;
    fastest.open();
    const double deadline = net.now() + kExamMaxSec;
    for (int step = 0; net.now() < deadline && !app->scenario().finished();
         ++step) {
      if (step > 0 && step % kStepsPerSegment == 0) {
        const std::uint64_t delivered = remoteCounts(cluster).second;
        fastest.close(delivered - segmentDelivered0);
        segmentDelivered0 = delivered;
        fastest.open();
      }
      if (tracer != nullptr) tracer->setRequest(static_cast<std::uint64_t>(step));
      const double target = net.now() + kStepSec;
      while (net.now() < target) {
        const double slice = std::min(tickSec, target - net.now());
        {
          Span span(tracer, SpanKind::kAdvance);
          net.advance(slice);
        }
        for (std::size_t i = 0; i < cluster.size(); ++i) {
          roleTickNs[kRoleOfCb[i]] +=
              tickCb(cluster.cb(i), net.now(), tracer, idleTickNs);
          if (i == kDynamicsCb) {
            watch.afterDynamicsTick();
          } else if (i == kInstructorCb &&
                     !watch.afterInstructorTick(net.now(), fastest.current())) {
            addViolation(out, "e10_exam: more crane.state reflections than "
                              "publishes at computer 8");
          }
        }
      }
    }
    fastest.close(remoteCounts(cluster).second - segmentDelivered0);
    examVirtualS = net.now() - virtual0;

    const auto [sent1, delivered1] = remoteCounts(cluster);
    examDelivered += delivered1 - delivered0;
    examBytes += net.stats().bytesSent - bytes0;
    // Everything sent by the end of the exam must arrive: this LAN loses
    // nothing and delivers in order, so step the rack on (untimed) until
    // as many remote updates have been reflected as had been sent.
    for (int k = 0; k < 40 && remoteCounts(cluster).second < sent1; ++k)
      app->step(tickSec);
    out.attempted += sent1;
    out.failed += sent1 - std::min(remoteCounts(cluster).second, sent1);

    const cod::scenario::ScoreSheet& sheet = app->scenario().exam().score();
    if (auto bad = checkExamResult(cod::scenario::phaseName(sheet.phase),
                                   sheet.total, sheet.elapsedSec))
      addViolation(out, "e10_exam: " + *bad);
    const std::string fp = fingerprint(sheet);
    if (out.examFingerprint.empty()) out.examFingerprint = fp;
    if (fp != out.examFingerprint)
      addViolation(out, "e10_exam: exam result differs between episodes");
    if (!fastest.endEpisode())
      addViolation(out, "e10_exam: exams differ in length");

    if (tracer != nullptr) {
      tracedVirtualS += examVirtualS;
      for (std::size_t i = 0; i < cluster.size(); ++i)
        addStats(rackStats, cluster.cb(i).stats());
      cod::sim::CraneStateMsg m;
      m.state = app->dynamics().craneState();
      m.boomTip = app->dynamics().kinematics().boomTip(m.state);
      m.hookPosition = app->dynamics().hookPosition();
      m.cargoPosition = app->dynamics().cargoPosition();
      m.simTimeSec = app->dynamics().simTime();
      probeSets.push_back(cod::sim::encodeCraneState(m));
      renderUs = renderProbeUs(*app, 0.2);
    }
  };
  const PlanResult plan =
      runPlan(seconds, kNominalExamWallS, probe, episode, out);

  EndToEnd& e = out.e2e;
  e.setupS = plan.setupS;
  e.realtimeX = examVirtualS / fastest.wallS();
  e.updatesPerS = static_cast<double>(fastest.delivered()) / fastest.wallS();
  e.wireBytesPerUpdate =
      static_cast<double>(examBytes) / static_cast<double>(examDelivered);
  e.deliveryRatio = static_cast<double>(out.attempted - out.failed) /
                    static_cast<double>(out.attempted);
  const LatencySummary lat = fastest.latency();
  const LatencySummary vlat = fastest.vlatency();
  e.latencyP50Us = lat.p50;
  e.latencyP99Us = lat.p99;
  e.vlatencyP50Ms = vlat.p50;
  e.vlatencyP99Ms = vlat.p99;

  out.notes.push_back("every exam ended " + out.examFingerprint);
  out.notes.push_back(describe("crane.state 7->8 latency", lat, "us"));
  out.notes.push_back(describe("crane.state 7->8 virtual latency", vlat, "ms"));

  if (tracer != nullptr) {
    Layers& l = out.layers;
    std::tie(l.valueEncodeNs, l.valueDecodeNs) =
        probeValueCodec(probeSets, 0.05);
    l.valueCraneStateBytes =
        static_cast<double>(probeSets.back().encode().size());
    l.cbIdleTickNs = idleTickNs.empty() ? 0.0 : median(idleTickNs);
    l.batchFramesPerDatagram = framesPerDatagram(rackStats);
    fillReliableLayers(rackStats, static_cast<std::size_t>(plan.episodes), l);
    l.simnetAdvanceNs =
        static_cast<double>(tracer->stat(SpanKind::kAdvance).totalNs) /
        static_cast<double>(tracer->stat(SpanKind::kAdvance).count);
    for (std::size_t r = 0; r < roleTickNs.size(); ++r)
      l.e10TickMsPerVs[r] = roleTickNs[r] * 1e-6 / tracedVirtualS;
    l.renderFrameUs = renderUs;
  }
  return out;
}

}  // namespace perfbench
