// perfbench — the COD cost ledger.
//
//   perfbench --workload <e10_exam|rack_udp|reliable_lossy> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends half the time untraced and half traced, prints how far each
// end-to-end metric moved between the two (the tracing overhead), and
// reports the per-layer metrics of the traced half. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// Exit code 0 when every correctness check holds, 1 when one failed, 2 on
// bad arguments or a broken run.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> endToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setupS, "s"},
      {"realtime_x", e.realtimeX, "x"},
      {"updates_per_s", e.updatesPerS, "1/s"},
      {"latency_p50_us", e.latencyP50Us, "us"},
      {"latency_p99_us", e.latencyP99Us, "us"},
      {"vlatency_p50_ms", e.vlatencyP50Ms, "ms_virtual"},
      {"vlatency_p99_ms", e.vlatencyP99Ms, "ms_virtual"},
      {"delivery_ratio", e.deliveryRatio, "ratio"},
      {"wire_bytes_per_update", e.wireBytesPerUpdate, "B"},
  };
}

std::vector<Metric> layerMetrics(const Layers& l) {
  std::vector<Metric> m = {
      {"value.encode_ns", l.valueEncodeNs, "ns"},
      {"value.decode_ns", l.valueDecodeNs, "ns"},
      {"value.crane_state_bytes", l.valueCraneStateBytes, "B"},
      {"protocol.decode_ns", l.protocolDecodeNs, "ns"},
      {"cb.publish_ns", l.cbPublishNs, "ns"},
      {"cb.tick_self_ns", l.cbTickSelfNs, "ns"},
      {"cb.idle_tick_ns", l.cbIdleTickNs, "ns"},
      {"cb.flush_wait_us", l.cbFlushWaitUs, "us"},
      {"batch.frames_per_datagram", l.batchFramesPerDatagram, "frames"},
      {"udp.send_ns", l.udpSendNs, "ns"},
      {"udp.recv_ns", l.udpRecvNs, "ns"},
      {"udp.empty_recv_ratio", l.udpEmptyRecvRatio, "ratio"},
      {"udp.queue_wait_us", l.udpQueueWaitUs, "us"},
      {"reliable.retransmit_ratio", l.reliableRetransmitRatio, "ratio"},
      {"reliable.nacks_per_1k", l.reliableNacksPer1k, "count"},
      {"reliable.window_evictions", l.reliableWindowEvictions, "count"},
      {"reliable.gaps_abandoned", l.reliableGapsAbandoned, "count"},
      {"simnet.advance_ns", l.simnetAdvanceNs, "ns"},
  };
  for (std::size_t r = 0; r < kRoleNames.size(); ++r)
    m.push_back({std::string("e10.tick_ms_per_vs.") + kRoleNames[r],
                 l.e10TickMsPerVs[r], "ms/s"});
  m.push_back({"render.frame_us", l.renderFrameUs, "us"});
  return m;
}

/// This process's own peak RSS. Not getrusage(): Linux carries ru_maxrss
/// over from the parent across exec, so it would report run.py's peak.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Prints the percentile and negative-control checks; false if any failed.
bool runSelfChecks(bool verbose) {
  const std::vector<std::string> pct = percentileSelfTest();
  std::printf("percentile helper: %s\n",
              pct.empty() ? "all hand-computed cases match" : "MISMATCH");
  for (const std::string& f : pct) std::printf("  %s\n", f.c_str());
  const std::vector<ControlOutcome> controls = negativeControls();
  std::size_t rejected = 0;
  for (const ControlOutcome& c : controls) rejected += c.rejected ? 1 : 0;
  std::printf("negative controls: %zu/%zu rejected by their check\n", rejected,
              controls.size());
  for (const ControlOutcome& c : controls)
    if (verbose || !c.rejected)
      std::printf("  %-32s %s\n", c.name.c_str(),
                  c.rejected ? "rejected" : "NOT REJECTED");
  return pct.empty() && rejected == controls.size();
}

using Runner = PassResult (*)(std::uint64_t, double, Tracer*);

int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool trace) {
  Runner runner = nullptr;
  if (workload == "e10_exam") runner = runE10Exam;
  else if (workload == "rack_udp") runner = runRackUdp;
  else if (workload == "reliable_lossy") runner = runReliableLossy;
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0);
  bool correct = runSelfChecks(false);

  std::vector<PassResult> passes;
  Tracer tracer;
  passes.push_back(runner(seed, trace ? seconds / 2 : seconds, nullptr));
  const double untracedPeakRssMb = peakRssMb();  // before the traced pass
  if (trace) passes.push_back(runner(seed, seconds / 2, &tracer));
  const PassResult& untraced = passes.front();

  std::printf("run conditions: seed=%llu nproc=%u compiler=\"%s\" build=%s "
              "traffic=%s\n",
              static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency(), compilerName().c_str(),
              PERFBENCH_BUILD_TYPE, untraced.traffic.c_str());
  std::uint64_t attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    for (const std::string& n : p.notes) std::printf("%s\n", n.c_str());
    for (const std::string& v : p.violations)
      std::printf("CHECK FAILED: %s\n", v.c_str());
    correct = correct && p.violations.empty();
    attempted += p.attempted;
    failed += p.failed;
  }
  if (trace && untraced.examFingerprint != passes.back().examFingerprint) {
    std::printf("CHECK FAILED: traced exam differs from the untraced one\n");
    correct = false;
  }
  std::printf("failed deliveries: %llu of %llu attempted\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Metric> metrics = endToEndMetrics(untraced.e2e);
  metrics.push_back({"peak_rss_mb", untracedPeakRssMb, "MB"});
  for (const Metric& m : metrics)
    std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  if (trace) {
    const std::vector<Metric> tracedE2e = endToEndMetrics(passes.back().e2e);
    std::printf("tracing overhead (traced vs untraced, same seed):\n");
    for (std::size_t i = 0; i < tracedE2e.size(); ++i)
      std::printf("  %-24s %.6g -> %.6g %s (%+.1f%%)\n", metrics[i].name.c_str(),
                  metrics[i].value, tracedE2e[i].value, metrics[i].unit,
                  (tracedE2e[i].value / metrics[i].value - 1.0) * 100.0);
    metrics = layerMetrics(passes.back().layers);
    std::printf("per-layer (traced pass):\n");
    for (const Metric& m : metrics)
      std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (attempted == 0) throw std::runtime_error("nothing was attempted");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value))
      throw std::runtime_error(metrics[i].name + " is not a finite number");
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--self-test") return perfbench::runSelfChecks(true) ? 0 : 1;
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      const std::string v = argv[++i];
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else throw std::invalid_argument("unknown argument " + a);
    }
    if (workload.empty() || !(seconds > 0) || (trace != 0 && trace != 1))
      throw std::invalid_argument("need --workload, --seconds > 0, --trace 0|1");
    return perfbench::run(workload, seed, seconds, trace == 1);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
