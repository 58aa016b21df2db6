// Shared pieces of the COD cost-ledger benchmark: clocks, the percentile
// helper, the in-memory span tracer, the traced transport wrapper, the
// correctness checkers and the per-pass result every workload returns.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/cb.hpp"
#include "net/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

// ---- statistics ---------------------------------------------------------

/// Percentile `p` (0..100) of `sorted` (ascending, non-empty) by linear
/// interpolation between the closest ranks: rank = p/100 * (n - 1). The
/// result always lies within [min, max].
double percentile(const std::vector<double>& sorted, double p);
double median(std::vector<double> values);

/// Of the percentiles 50, 90, 99, 99.9 and 99.99, the highest that has at
/// least ten samples beyond it in a set of `n` samples (0 if none has).
double highestReportablePercentile(std::size_t n);

struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double topP = 0.0;      // highestReportablePercentile(n)
  double topValue = 0.0;  // value at topP
  double max = 0.0;
};
/// Sorts `samples` in place.
LatencySummary summarize(std::vector<double>& samples);
/// One report line: sample count, p50, p99, the highest percentile with
/// ten samples beyond it, and the maximum.
std::string describe(const std::string& what, const LatencySummary& s,
                     const char* unit);

/// One slice of an episode's work as timed in one repetition.
struct Segment {
  std::int64_t wallNs = 0;
  std::uint64_t delivered = 0;  // remote reflections
  std::vector<double> latencyUs;
  std::vector<double> vlatencyMs;
};

/// Min-of-N over the repetitions of a run. Every episode of a run does the
/// same work, cut into the same segments; for each segment the fastest
/// repetition is kept with what it delivered and the latencies it saw.
/// Interference from other tenants of the host comes in bursts of a few
/// seconds, so it slows some repetitions of a segment and drops out here.
/// N is fixed by the run plan, not by how fast the code runs. Storage is
/// reused from episode to episode, so the benchmark's own memory does not
/// depend on timing.
class FastestSegments {
 public:
  /// Starts the next segment of the episode in progress and its clock.
  void open();
  /// The open segment; samples are recorded into it.
  Segment& current() { return episode_[open_ - 1]; }
  /// Stops the open segment's clock and credits it with `delivered`.
  void close(std::uint64_t delivered);
  /// Keeps, segment by segment, the faster of the kept and the finished
  /// repetition. False if the episode was cut into a different number of
  /// segments than the ones before it (then it was not the same work).
  bool endEpisode();

  double wallS() const;
  std::uint64_t delivered() const;
  LatencySummary latency() const;
  LatencySummary vlatency() const;

 private:
  std::vector<Segment> best_;
  std::vector<Segment> episode_;
  std::size_t open_ = 0;  // segments opened in the episode in progress
  std::int64_t startNs_ = 0;
  std::size_t repetitions_ = 0;
};

/// Checks percentile() and highestReportablePercentile() against values
/// worked out by hand. Returns one line per failed case.
std::vector<std::string> percentileSelfTest();

// ---- tracing ------------------------------------------------------------

/// Span kinds, one per call into a layer that the benchmark makes or
/// intercepts.
enum class SpanKind : int {
  kPublish,    // CommunicationBackbone::updateAttributeValues
  kTick,       // CommunicationBackbone::tick
  kReflect,    // an LP's reflectAttributeValues (inside a tick)
  kTransport,  // a call into the Transport under a CB (inside a tick)
  kAdvance,    // SimNetwork::advance
  kCount
};

/// Spans kept in memory and folded into per-kind totals as they close: a
/// span's self time is its duration minus the time of the spans opened
/// inside it. The current request (round or update id) is set by the
/// workload; the wire tap uses it to tie a publish to its round's send.
class Tracer {
 public:
  struct Stat {
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
  };

  void begin(SpanKind kind);
  /// Closes the innermost span; returns its duration.
  std::int64_t end();
  std::uint64_t request() const { return request_; }
  void setRequest(std::uint64_t request) { request_ = request; }
  const Stat& stat(SpanKind kind) const {
    return stats_[static_cast<int>(kind)];
  }
  double meanSelfNs(SpanKind kind) const;

 private:
  struct Open {
    SpanKind kind;
    std::int64_t startNs;
    std::int64_t childNs;
  };
  std::vector<Open> stack_;
  std::array<Stat, static_cast<int>(SpanKind::kCount)> stats_{};
  std::uint64_t request_ = 0;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Ticks `cb` at `now`. With a tracer the tick is a kTick span, and its
/// wall time goes into `idleTickNs` when transportStats() saw nothing
/// arrive during it. Returns the span's duration in ns (0 untraced).
double tickCb(cod::core::CommunicationBackbone& cb, double now, Tracer* tracer,
              std::vector<double>& idleTickNs);

/// What the traced transports of one rack observe on the wire.
struct WireTap {
  std::int64_t sendNs = 0;  // time inside the wrapped transport's sends
  std::uint64_t sendCalls = 0;
  std::int64_t recvNs = 0;  // time inside receive(), empty polls included
  std::uint64_t recvCalls = 0;
  std::uint64_t emptyRecvCalls = 0;
  /// Publisher host -> (request, when its last publish of that request
  /// returned); cleared by the host's next send.
  std::map<cod::net::HostId, std::pair<std::uint64_t, std::int64_t>>
      publishReturn;
  std::vector<double> flushWaitUs;
  /// (src host, dst host, size, FNV-1a of the bytes) -> send times, so a
  /// receive can find when its datagram left the sender.
  std::map<std::tuple<cod::net::HostId, cod::net::HostId, std::size_t,
                      std::uint64_t>,
           std::deque<std::int64_t>>
      inFlight;
  std::vector<double> queueWaitUs;
  /// Received datagrams kept for the protocol-decode probe.
  std::vector<std::vector<std::uint8_t>> captured;
  std::uint64_t receivedCount = 0;

  /// `request` is the tracer's current request at the send: the wait from
  /// publish to send counts only when the send serves the same request.
  void onSend(cod::net::HostId src, cod::net::HostId dst,
              std::uint64_t hash, std::size_t size, std::int64_t t,
              std::uint64_t request);
  void onReceive(const cod::net::Datagram& d, std::int64_t t);
};

/// Transport wrapper of the traced pass: every call is a kTransport span
/// (so it leaves the caller's self time), and the inner call itself is
/// timed into the tap.
class TracedTransport final : public cod::net::Transport {
 public:
  TracedTransport(std::unique_ptr<cod::net::Transport> inner, Tracer& tracer,
                  WireTap& tap, cod::net::HostId hostCount)
      : inner_(std::move(inner)),
        tracer_(tracer),
        tap_(tap),
        hostCount_(hostCount) {}

  cod::net::NodeAddr localAddress() const override {
    return inner_->localAddress();
  }
  void send(const cod::net::NodeAddr& dst,
            std::span<const std::uint8_t> bytes) override;
  void broadcast(std::uint16_t port,
                 std::span<const std::uint8_t> bytes) override;
  std::optional<cod::net::Datagram> receive() override;
  void sendv(const cod::net::NodeAddr& dst,
             std::span<const cod::net::ByteSpan> parts) override;
  const cod::net::TransportStats* stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<cod::net::Transport> inner_;
  Tracer& tracer_;
  WireTap& tap_;
  cod::net::HostId hostCount_;
};

// ---- correctness checkers -----------------------------------------------

/// The careful trainee on compactCourse() must pass with 96.0 points after
/// 143.7 virtual seconds. Returns the failure, if any.
std::optional<std::string> checkExamResult(const std::string& phase,
                                           double score, double elapsedSec);

/// Newest-wins stream at one receiver: every delivery must carry exactly
/// the values published for its sequence, and sequences must only rise.
class NewestWinsCheck {
 public:
  /// Returns the violation, if any; a good delivery counts as delivered.
  std::optional<std::string> deliver(std::int64_t seq,
                                     const cod::core::AttributeSet& got,
                                     const cod::core::AttributeSet* expected);
  std::uint64_t delivered() const { return delivered_; }

 private:
  std::int64_t last_ = -1;
  std::uint64_t delivered_ = 0;
};

/// Reliable stream at one receiver: releases must be in order with no
/// duplicates and carry the published values. A sequence skipped over is
/// missing (a failed delivery), not a violation.
class InOrderCheck {
 public:
  std::optional<std::string> deliver(std::int64_t seq,
                                     const cod::core::AttributeSet& got,
                                     const cod::core::AttributeSet& expected);
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t skipped() const { return skipped_; }

 private:
  std::int64_t last_ = -1;
  std::uint64_t delivered_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Feeds every checker a corrupted, dropped, duplicated or reordered
/// delivery and returns one line per control, "rejected" or not.
struct ControlOutcome {
  std::string name;
  bool rejected = false;
};
std::vector<ControlOutcome> negativeControls();

// ---- per-pass results ---------------------------------------------------

struct EndToEnd {
  double setupS = 0.0;
  double realtimeX = 0.0;
  double updatesPerS = 0.0;
  double latencyP50Us = 0.0;
  double latencyP99Us = 0.0;
  double vlatencyP50Ms = 0.0;
  double vlatencyP99Ms = 0.0;
  double deliveryRatio = 0.0;
  double wireBytesPerUpdate = 0.0;
};

/// Every per-layer metric; a layer the workload does not exercise stays 0.
struct Layers {
  double valueEncodeNs = 0, valueDecodeNs = 0, valueCraneStateBytes = 0;
  double protocolDecodeNs = 0;
  double cbPublishNs = 0, cbTickSelfNs = 0, cbIdleTickNs = 0,
         cbFlushWaitUs = 0;
  double batchFramesPerDatagram = 0;
  double udpSendNs = 0, udpRecvNs = 0, udpEmptyRecvRatio = 0,
         udpQueueWaitUs = 0;
  double reliableRetransmitRatio = 0, reliableNacksPer1k = 0,
         reliableWindowEvictions = 0, reliableGapsAbandoned = 0;
  double simnetAdvanceNs = 0;
  std::array<double, 6> e10TickMsPerVs{};  // display..instructor
  double renderFrameUs = 0;
};

inline constexpr std::array<const char*, 6> kRoleNames = {
    "display", "sync", "dashboard", "platform", "dynamics", "instructor"};

struct PassResult {
  EndToEnd e2e;
  Layers layers;  // filled by traced passes only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // correctness failures
  std::vector<std::string> notes;       // human-readable report lines
  std::string examFingerprint;          // e10_exam only
  std::string traffic;                  // "loopback UDP" or "SimNetwork"
};

/// Mirrors the reliable counters summed over a rack into Layers; the
/// eviction and abandoned-gap counts are per episode.
void fillReliableLayers(const cod::core::CbStats& total, std::size_t episodes,
                        Layers& out);
/// frames carried / datagrams sent by the coalescer, over a rack.
double framesPerDatagram(const cod::core::CbStats& total);
/// Sum of two stats blocks (the counters the ledger reads).
void addStats(cod::core::CbStats& into, const cod::core::CbStats& s);

/// Mean ns of AttributeSet::encode and ::decode over `sets`, repeated
/// until about `budgetSec` of probing is spent.
std::pair<double, double> probeValueCodec(
    const std::vector<cod::core::AttributeSet>& sets, double budgetSec);
/// Mean ns of core::decode over `datagrams`.
double probeProtocolDecode(
    const std::vector<std::vector<std::uint8_t>>& datagrams,
    double budgetSec);

/// Deterministic 64-bit mix (SplitMix64) for seeding per episode.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Stops collecting violations after this many (the count still grows).
inline constexpr std::size_t kMaxViolationLines = 8;
void addViolation(PassResult& r, std::string line);

/// setup_s is measured like the segments: kSetupSeeds racks, each on a
/// seed of its own, are set up kSetupRepeats times each (timed until every
/// subscription is connected, then torn down untimed). Each seed keeps its
/// fastest set-up, which drops the host's slow spells; setup_s is the
/// median over the seeds, a typical handshake.
inline constexpr int kSetupSeeds = 11;
inline constexpr int kSetupRepeats = 9;

/// Seed of set-up variant `variant`. The panel is the same in every run,
/// whatever --seed is, so setup_s compares the same handshakes from run to
/// run and from build to build.
std::uint64_t setupSeed(int variant);

/// How a run went: the median set-up time and the episodes it made.
struct PlanResult {
  double setupS = 0.0;
  int episodes = 0;
};

/// Runs a workload's fixed plan. The episode count is --seconds divided by
/// the episode's wall time on the reference host (`nominalEpisodeS`), at
/// least 1, so it never depends on how fast the code under test runs: a
/// parent and a change are measured with the same min-of-N. The
/// kSetupSeeds x kSetupRepeats calls of `probe(v)`, each returning the wall
/// seconds of one set-up of seed variant v, are spread evenly before the
/// episodes, round-robin over the variants, so each seed's repetitions lie
/// far apart in time. A build so slow that the run has used twice its --seconds
/// starts no further episode (the report says so); the probes still all run.
PlanResult runPlan(double seconds, double nominalEpisodeS,
                   const std::function<double(int)>& probe,
                   const std::function<void(int)>& episode, PassResult& out);

// ---- workloads ----------------------------------------------------------

/// Each runs its plan for `seconds`: set-up probes, then episodes of the
/// same seeded work (set-up, measured work, checks). A non-null tracer
/// makes it the traced pass.
PassResult runE10Exam(std::uint64_t seed, double seconds, Tracer* tracer);
PassResult runRackUdp(std::uint64_t seed, double seconds, Tracer* tracer);
PassResult runReliableLossy(std::uint64_t seed, double seconds,
                            Tracer* tracer);

}  // namespace perfbench
