// Model-clock half: core::ModelDriver on the paper's server. The result is
// a function of the seed alone, so it repeats exactly across processes.
#include <algorithm>

#include "core/model_driver.hpp"
#include "core/testbed.hpp"
#include "harness.hpp"
#include "perf/ledger.hpp"

namespace perfbench {

namespace {

/// Packets per model run: enough for every workload to reach its steady
/// batch shape, small enough that the slowest (IPsec) takes about a second.
u64 model_packets(Kind kind) { return kind == Kind::kIpsecImix ? 60'000 : 400'000; }

/// Churn runs equal slices with one update batch between consecutive ones.
/// Each slice draws its own Zipf flow universe: which worker cores the few
/// hottest flows hash to sets the busiest core, so one universe makes the
/// rate a matter of luck (about ±5% between seeds); sixteen average it out.
constexpr int kChurnSlices = 16;

}  // namespace

void run_model(const Options& opt, Report& out) {
  const std::size_t batches = opt.kind == Kind::kIpv4ChurnZipf ? kChurnSlices : 0;
  auto w = make_workload(opt.kind, opt.seed, batches, false);
  const core::RouterConfig rcfg = w->router_config();
  core::Testbed testbed(core::TestbedConfig{.topo = pcie::Topology::paper_server(),
                                            .use_gpu = true,
                                            .ring_size = 4096},
                        rcfg);
  core::ModelDriver driver(testbed, w->app.get(), rcfg);

  const int slices = opt.kind == Kind::kIpv4ChurnZipf ? kChurnSlices : 1;
  const u64 per_slice = model_packets(opt.kind) / static_cast<u64>(slices);
  perf::CostLedger ledger;
  core::ModelResult total;
  double mean_wire_bytes = 0.0;
  for (int s = 0; s < slices; ++s) {
    // ModelDriver::run detaches its ledger on return, so the update batch
    // between slices is not priced on the model clock.
    if (s > 0) w->apply_churn_batch(nullptr);
    gen::TrafficConfig tcfg = w->traffic;
    tcfg.seed += static_cast<u64>(s) * 0x632be59bd9b4e019ULL;
    gen::TrafficGen traffic(tcfg);
    testbed.connect_sink(&traffic);
    const core::ModelResult r = driver.run(traffic, per_slice);
    testbed.connect_sink(nullptr);
    mean_wire_bytes = traffic.mean_wire_bytes();
    ledger.merge(driver.ledger());
    total.offered += r.offered;
    total.accepted += r.accepted;
    total.forwarded += r.forwarded;
  }

  if (total.forwarded != total.accepted) out.fail("ModelDriver forwarded != accepted");
  if (total.accepted != total.offered) out.fail("ModelDriver dropped frames at the RX rings");
  out.attempted = total.offered;
  out.failed = total.offered - std::min(total.offered, total.forwarded);

  const Picos t = ledger.bottleneck_time();
  const double secs = to_seconds(t);
  out.put("model_mpps", static_cast<double>(total.forwarded) / secs / 1e6, "Mpps");
  out.put("model_gbps",
          static_cast<double>(total.accepted) * mean_wire_bytes * 8.0 / secs / 1e9,
          "Gbps");

  // Busiest instance of each resource kind, per forwarded packet.
  std::array<Picos, 8> busiest{};
  perf::ResourceKind bottleneck = perf::ResourceKind::kCpuCore;
  Picos bottleneck_busy = 0;
  for (const auto& [id, busy] : ledger.entries()) {
    auto& b = busiest[static_cast<std::size_t>(id.kind)];
    b = std::max(b, busy);
    if (busy > bottleneck_busy) {
      bottleneck_busy = busy;
      bottleneck = id.kind;
    }
  }
  const double pkts = static_cast<double>(std::max<u64>(total.forwarded, 1));
  auto per_pkt = [&](perf::ResourceKind k) {
    return static_cast<double>(busiest[static_cast<std::size_t>(k)]) / pkts;
  };
  out.put("perf.cpu_ps_pkt", per_pkt(perf::ResourceKind::kCpuCore), "ps");
  out.put("perf.ioh_d2h_ps_pkt", per_pkt(perf::ResourceKind::kIohD2h), "ps");
  out.put("perf.ioh_h2d_ps_pkt", per_pkt(perf::ResourceKind::kIohH2d), "ps");
  out.put("perf.gpu_exec_ps_pkt", per_pkt(perf::ResourceKind::kGpuExec), "ps");
  out.put("perf.gpu_copy_ps_pkt", per_pkt(perf::ResourceKind::kGpuCopy), "ps");
  out.put("perf.bottleneck_kind", static_cast<double>(bottleneck), "enum");
  out.meta["model_bottleneck"] = ledger.bottleneck_name();
  out.meta["model_packets"] = std::to_string(total.forwarded);
}

}  // namespace perfbench
