// bench_async — the async network engine's two performance claims, on
// real loopback sockets:
//
//  (a) syscall batching: sendmmsg/recvmmsg bursts vs the portable
//      one-syscall-per-datagram path, same sockets, same payloads —
//      the engine's datagrams/s lever. The win is the syscall entry
//      cost times the burst size, so the speedup is a HOST property:
//      on kernels with expensive syscall entry (spectre-mitigated
//      metal, ~1-2us/entry) batching 32 datagrams per call doubles
//      throughput and more; on VMs with cheap entry (~100ns measured
//      against a ~2us per-datagram loopback stack cost) it is a few
//      percent. Both are correct measurements of the same mechanism.
//  (b) a saturated 16-peer full-mesh CB cluster, sync vs async engine,
//      measured with the tick-phase profiler: the engine moves socket
//      work off the tick thread, which shows as lower p99 tick time —
//      when there are cores for the engine threads to run on. On a
//      single-core host 32 engine threads compete with the 16 tick
//      loops they serve, so the same bench reports the preemption cost
//      instead.
//
// Gating therefore comes in two tiers:
//   * default (every host, the ctest smoke lane): sanity — the mmsg
//     path must not be slower than the single-syscall path beyond
//     noise, the async mesh must wire up and deliver, and async p99
//     must stay within an order of magnitude of sync.
//   * COD_BENCH_ASYNC_STRICT=1 (CI perf runners with >= 4 cores):
//     the headline claims — >= 2x datagrams/s from batching and
//     strictly lower async p99 tick latency.
//
// Emits a machine-readable `COD_BENCH_SUMMARY {json}` line that
// bench/run_all.sh captures into BENCH_async.json for the CI baseline
// gate. Exits non-zero if the active gate tier fails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/cb.hpp"
#include "net/engine.hpp"
#include "net/udp.hpp"
#include "telemetry/hist.hpp"

using namespace cod;

namespace {

double wallClock() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- (a) syscall A/B ----------------------------------------------------

// Push `count` datagrams of `bytes` each from a to b, draining b inline
// (loopback socket buffers are small; send and receive must interleave).
// Returns datagrams per second actually received.
double syscallRate(net::UdpTransport& a, net::UdpTransport& b, bool mmsg,
                   std::size_t count, std::size_t bytes) {
  a.useMmsgSyscalls(mmsg);
  b.useMmsgSyscalls(mmsg);
  const std::vector<std::uint8_t> payload(bytes, 0x5A);
  constexpr std::size_t kBurst = net::UdpTransport::kMmsgBurst;
  std::vector<net::OutDatagram> burst;
  burst.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i)
    burst.push_back({{1, 0}, payload});
  std::vector<net::Datagram> in(kBurst);

  std::size_t sent = 0;
  std::size_t received = 0;
  const double t0 = wallClock();
  while (sent < count) {
    const std::size_t n = std::min(kBurst, count - sent);
    a.sendMany(std::span<const net::OutDatagram>(burst.data(), n));
    sent += n;
    // Drain whatever already landed; don't insist on every datagram
    // (UDP semantics — the rate counts what arrived).
    for (;;) {
      const std::size_t got = b.receiveBatch(in);
      received += got;
      if (got < in.size()) break;
    }
  }
  // Final drain: the tail of the last burst may still be in flight.
  const double drainDeadline = wallClock() + 0.05;
  while (received < sent && wallClock() < drainDeadline)
    received += b.receiveBatch(in);
  const double dt = wallClock() - t0;
  return dt > 0 ? static_cast<double>(received) / dt : 0.0;
}

// ---- (b) 16-peer mesh ---------------------------------------------------

class NullLp : public core::LogicalProcess {
 public:
  NullLp() : LogicalProcess("bench-lp") {}
  std::uint64_t reflected = 0;
  void reflectAttributeValues(const std::string&, const core::AttributeSet&,
                              double) override {
    ++reflected;
  }
};

struct MeshResult {
  double dps = 0.0;        // datagrams/s summed over the cluster
  double p99TickUs = 0.0;  // p99 tick duration across every peer's ticks
  double pollP99Us = 0.0;  // p99 of the poll/decode phase
  double flushP99Us = 0.0; // p99 of the flush phase
  std::uint64_t reflected = 0;
  bool wired = false;
};

// Merge interval snapshots (cur minus base) across peers into one
// histogram, then read a percentile off it.
struct HistMerge {
  telemetry::HistogramSnapshot sum;
  void add(const telemetry::HistogramSnapshot& cur,
           const telemetry::HistogramSnapshot& base) {
    telemetry::LogHistogram::merge(sum,
                                   telemetry::LogHistogram::diff(cur, base));
  }
  double p99Us(double lowest) const {
    return telemetry::LogHistogram::percentile(sum, 0.99, lowest) * 1e6;
  }
};

MeshResult runMesh(bool asyncNet, int peers, double seconds) {
  net::UdpConfig net;
  net.portsPerHost = 1;
  net.maxHosts = static_cast<std::uint16_t>(peers);
  net.basePort =
      net::pickEphemeralBasePort(static_cast<std::uint16_t>(peers));

  core::CommunicationBackbone::Config cbCfg;
  cbCfg.broadcastIntervalSec = 0.02;
  cbCfg.phaseProfile = true;
  cbCfg.asyncNet = asyncNet;

  std::vector<std::unique_ptr<NullLp>> lps;
  std::vector<std::unique_ptr<core::CommunicationBackbone>> cbs;
  std::vector<core::PublicationHandle> pubs;
  std::vector<std::vector<core::SubscriptionHandle>> subs(peers);
  for (int i = 0; i < peers; ++i) {
    lps.push_back(std::make_unique<NullLp>());
    cbs.push_back(std::make_unique<core::CommunicationBackbone>(
        "mesh-" + std::to_string(i),
        std::make_unique<net::UdpTransport>(net, static_cast<net::HostId>(i),
                                            0),
        cbCfg));
    cbs[i]->attach(*lps[i]);
    pubs.push_back(
        cbs[i]->publishObjectClass(*lps[i], "mesh." + std::to_string(i)));
  }
  for (int i = 0; i < peers; ++i)
    for (int j = 0; j < peers; ++j)
      if (j != i)
        subs[i].push_back(cbs[i]->subscribeObjectClass(
            *lps[i], "mesh." + std::to_string(j)));

  MeshResult r;
  // Wire-up: tick until every subscription has a live source.
  const double wireDeadline = wallClock() + 60.0;
  for (;;) {
    bool all = true;
    for (int i = 0; i < peers && all; ++i)
      for (const auto sh : subs[i])
        if (!cbs[i]->connected(sh)) {
          all = false;
          break;
        }
    if (all) {
      r.wired = true;
      break;
    }
    if (wallClock() > wireDeadline) break;
    for (auto& cb : cbs) cb->tick(wallClock());
  }
  if (!r.wired) return r;

  // Measurement interval: snapshot the cumulative histograms and packet
  // counters, hammer updates, diff.
  constexpr std::size_t kTickIdx = 1;  // CbHistograms order: tickDurationSec
  std::vector<telemetry::HistogramSnapshot> tickBase(peers);
  std::vector<telemetry::HistogramSnapshot> pollBase(peers);
  std::vector<telemetry::HistogramSnapshot> flushBase(peers);
  std::uint64_t packetsBase = 0;
  std::uint64_t reflectedBase = 0;
  for (int i = 0; i < peers; ++i) {
    tickBase[i] = cbs[i]->histograms().at(kTickIdx).snapshot();
    pollBase[i] = cbs[i]
                      ->phaseHistograms()
                      .at(static_cast<std::size_t>(
                          telemetry::TickPhase::kPollDecode))
                      .snapshot();
    flushBase[i] =
        cbs[i]
            ->phaseHistograms()
            .at(static_cast<std::size_t>(telemetry::TickPhase::kFlush))
            .snapshot();
    packetsBase += cbs[i]->transportStats()->packetsSent;
    reflectedBase += lps[i]->reflected;
  }

  const double t0 = wallClock();
  const double tEnd = t0 + seconds;
  std::uint64_t round = 0;
  while (wallClock() < tEnd) {
    core::AttributeSet a;
    a.set("v", static_cast<double>(round));
    a.set("t", wallClock());
    for (int i = 0; i < peers; ++i) {
      cbs[i]->updateAttributeValues(pubs[i], a, wallClock());
      cbs[i]->tick(wallClock());
    }
    ++round;
  }
  const double dt = wallClock() - t0;

  HistMerge tick, poll, flush;
  std::uint64_t packets = 0;
  for (int i = 0; i < peers; ++i) {
    tick.add(cbs[i]->histograms().at(kTickIdx).snapshot(), tickBase[i]);
    poll.add(cbs[i]
                 ->phaseHistograms()
                 .at(static_cast<std::size_t>(
                     telemetry::TickPhase::kPollDecode))
                 .snapshot(),
             pollBase[i]);
    flush.add(cbs[i]
                  ->phaseHistograms()
                  .at(static_cast<std::size_t>(telemetry::TickPhase::kFlush))
                  .snapshot(),
              flushBase[i]);
    packets += cbs[i]->transportStats()->packetsSent;
    r.reflected += lps[i]->reflected;
  }
  r.reflected -= reflectedBase;
  r.dps = dt > 0 ? static_cast<double>(packets - packetsBase) / dt : 0.0;
  r.p99TickUs = tick.p99Us(1e-6);
  r.pollP99Us = poll.p99Us(telemetry::TickPhaseHistograms::kLowest);
  r.flushP99Us = flush.p99Us(telemetry::TickPhaseHistograms::kLowest);
  return r;
}

}  // namespace

int main() {
  std::printf("bench_async: threaded engine + batched syscalls\n\n");

  // ---- (a) syscall batching A/B ----------------------------------------
  net::UdpConfig cfg;
  cfg.portsPerHost = 1;
  cfg.maxHosts = 2;
  cfg.basePort = net::pickEphemeralBasePort(2);
  net::UdpTransport a(cfg, 0, 0);
  net::UdpTransport b(cfg, 1, 0);
  constexpr std::size_t kCount = 200000;
  constexpr std::size_t kBytes = 256;
  // Warm both paths (page faults, buffer allocation) before timing, then
  // interleave three trials per path and keep the best of each — the
  // ratio is what matters and a VM's background noise hits whichever
  // trial it lands on.
  syscallRate(a, b, true, 2000, kBytes);
  syscallRate(a, b, false, 2000, kBytes);
  double singleDps = 0.0;
  double mmsgDps = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    singleDps = std::max(singleDps, syscallRate(a, b, false, kCount, kBytes));
    mmsgDps = std::max(mmsgDps, syscallRate(a, b, true, kCount, kBytes));
  }
  const double speedup = singleDps > 0 ? mmsgDps / singleDps : 0.0;
  std::printf("(a) syscall A/B, %zu x %zu-byte datagrams over loopback\n",
              kCount, kBytes);
  std::printf("    %-22s %14.0f dgrams/s\n", "one syscall each:", singleDps);
  std::printf("    %-22s %14.0f dgrams/s\n", "sendmmsg/recvmmsg:", mmsgDps);
  std::printf("    %-22s %14.2fx\n\n", "batching speedup:", speedup);
  const bool mmsgAvailable = a.mmsgActive();
  if (!mmsgAvailable)
    std::printf("    (mmsg syscalls unavailable on this platform — "
                "A/B gate skipped)\n\n");

  // ---- (b) 16-peer saturated mesh, sync vs async -----------------------
  constexpr int kPeers = 16;
  constexpr double kSeconds = 3.0;
  std::printf("(b) %d-peer full mesh (%d channels), %.0fs saturated "
              "updates, phase-profiled\n",
              kPeers, kPeers * (kPeers - 1), kSeconds);
  const MeshResult sync = runMesh(false, kPeers, kSeconds);
  const MeshResult async = runMesh(true, kPeers, kSeconds);
  if (!sync.wired || !async.wired) {
    std::fprintf(stderr, "error: mesh wire-up did not converge (sync=%d "
                 "async=%d)\n", sync.wired, async.wired);
    return 1;
  }
  std::printf("    %-12s %12s %14s %12s %12s\n", "engine", "dgrams/s",
              "p99 tick us", "p99 poll us", "p99 flush us");
  std::printf("    %-12s %12.0f %14.1f %12.1f %12.1f\n", "sync", sync.dps,
              sync.p99TickUs, sync.pollP99Us, sync.flushP99Us);
  std::printf("    %-12s %12.0f %14.1f %12.1f %12.1f\n", "async", async.dps,
              async.p99TickUs, async.pollP99Us, async.flushP99Us);
  std::printf("    reflected updates: sync %llu, async %llu\n\n",
              static_cast<unsigned long long>(sync.reflected),
              static_cast<unsigned long long>(async.reflected));

  std::printf(
      "COD_BENCH_SUMMARY {\"bench\":\"async\",\"single_dps\":%.0f,"
      "\"mmsg_dps\":%.0f,\"mmsg_speedup\":%.3f,\"mesh_sync_dps\":%.0f,"
      "\"mesh_async_dps\":%.0f,\"mesh_sync_p99_tick_us\":%.1f,"
      "\"mesh_async_p99_tick_us\":%.1f,\"mesh_sync_reflected\":%llu,"
      "\"mesh_async_reflected\":%llu}\n",
      singleDps, mmsgDps, speedup, sync.dps, async.dps, sync.p99TickUs,
      async.p99TickUs, static_cast<unsigned long long>(sync.reflected),
      static_cast<unsigned long long>(async.reflected));

  // Gates (see the file comment for the two tiers).
  const char* strictEnv = std::getenv("COD_BENCH_ASYNC_STRICT");
  const bool strict = strictEnv != nullptr && strictEnv[0] == '1';
  bool ok = true;
  if (strict) {
    if (mmsgAvailable && speedup < 2.0) {
      std::fprintf(stderr, "GATE FAIL: mmsg batching speedup %.2fx < 2x\n",
                   speedup);
      ok = false;
    }
    if (async.p99TickUs >= sync.p99TickUs) {
      std::fprintf(stderr,
                   "GATE FAIL: async p99 tick %.1fus not below sync "
                   "%.1fus\n",
                   async.p99TickUs, sync.p99TickUs);
      ok = false;
    }
  } else {
    if (mmsgAvailable && mmsgDps < singleDps * 0.85) {
      std::fprintf(stderr,
                   "GATE FAIL: mmsg path %.0f dgrams/s regresses the "
                   "single-syscall path %.0f\n",
                   mmsgDps, singleDps);
      ok = false;
    }
    if (async.reflected < sync.reflected / 8) {
      std::fprintf(stderr,
                   "GATE FAIL: async mesh delivered %llu updates vs sync "
                   "%llu — the engine is dropping the cluster's traffic\n",
                   static_cast<unsigned long long>(async.reflected),
                   static_cast<unsigned long long>(sync.reflected));
      ok = false;
    }
    if (async.p99TickUs > sync.p99TickUs * 32.0) {
      std::fprintf(stderr,
                   "GATE FAIL: async p99 tick %.1fus vs sync %.1fus — "
                   "beyond scheduler-contention tolerance\n",
                   async.p99TickUs, sync.p99TickUs);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
