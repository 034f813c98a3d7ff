// Wall-clock half: the threaded core::Router on a one-node testbed (one
// worker, one master, SIMT kernels inline on the master), driven in a
// closed loop by the main thread.
#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "core/testbed.hpp"
#include "harness.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "probes.hpp"
#include "telemetry/alloc_stats.hpp"

namespace perfbench {

namespace {

constexpr auto kTimedWindow = std::chrono::seconds(1);
constexpr auto kWarmWindow = std::chrono::milliseconds(500);
constexpr int kWarmMinWindows = 3;
constexpr int kWarmMaxWindows = 16;
constexpr u64 kWarmFaultsSteady = 16;
/// Holds the worker's spans (pre_shade + post_shade per chunk) over the
/// traced half of a 30 s run with room to spare; overflow is counted in
/// trace.spans_dropped.
constexpr std::size_t kSpansPerThread = std::size_t{1} << 20;
constexpr std::size_t kIpsecMaxFrame = 1664;  // ESP-wrapped 1518 B frame fits

/// One node sized to the RIB's next hops: kNextHops ports, two cores
/// (one worker + one master in CPU+GPU mode), one GPU, one IOH.
pcie::Topology one_node_topology() {
  pcie::Topology t = pcie::Topology::single_node();
  t.cores_per_node = 2;
  t.ports_per_nic = 2;
  t.nics_per_node = kNextHops / t.ports_per_nic;
  t.gpus_per_node = 1;
  return t;
}

/// Pre-generated churn batches: enough for the fastest plausible offer
/// rate over the whole run, warm-up included.
std::size_t churn_batches_for(const Options& opt) {
  constexpr double kMaxRate = 4e6;  // frames/s, well above this host's ~1.6M
  const double secs = opt.seconds +
                      std::chrono::duration<double>(kWarmWindow).count() * kWarmMaxWindows + 5;
  return static_cast<std::size_t>(kMaxRate * secs / kChurnEvery) + 1;
}

/// Everything one set-up builds, torn down in reverse order.
struct Rig {
  std::unique_ptr<Workload> w;
  std::unique_ptr<core::Testbed> testbed;
  std::unique_ptr<gen::TrafficGen> traffic;
  std::unique_ptr<CheckingSink> sink;
  std::unique_ptr<SpanLog> log;
  std::unique_ptr<TimedShader> timed;
  std::unique_ptr<core::Router> router;
};

std::unique_ptr<Rig> set_up(const Options& opt, bool verify) {
  auto rig = std::make_unique<Rig>();
  rig->w = make_workload(opt.kind, opt.seed, churn_batches_for(opt), verify);
  Workload& w = *rig->w;
  const core::RouterConfig rcfg = w.router_config();
  rig->testbed = std::make_unique<core::Testbed>(
      core::TestbedConfig{.topo = one_node_topology(), .use_gpu = true, .ring_size = 4096,
                          .gpu_pool_workers = 0},
      rcfg);
  rig->traffic = std::make_unique<gen::TrafficGen>(w.traffic);
  const bool ipsec = opt.kind == Kind::kIpsecImix;
  // Every 64th frame is checked (every 1024th for IPsec, whose check keeps
  // the whole frame and decrypts it after the run).
  rig->sink = std::make_unique<CheckingSink>(*rig->traffic, ipsec ? 1024 : 64,
                                             ipsec ? 16384 : (std::size_t{1} << 20), ipsec,
                                             kIpsecMaxFrame);
  if (w.fib) rig->sink->set_fib(w.fib.get());
  rig->testbed->connect_sink(rig->sink.get());
  core::Shader* app = w.app.get();
  if (opt.trace) {
    rig->log = std::make_unique<SpanLog>(kSpansPerThread);
    rig->timed = std::make_unique<TimedShader>(*app, *rig->log, rcfg.gather_max);
    app = rig->timed.get();
  }
  rig->router =
      std::make_unique<core::Router>(rig->testbed->engine(), rig->testbed->gpus(), *app, rcfg);
  rig->router->start();
  return rig;
}

void cpu_relax() { __builtin_ia32_pause(); }

/// The main thread's load generator. Offers kOfferBatch-frame batches
/// while frames offered but neither transmitted nor dropped stay under
/// the window; in the churn workload it also applies one update batch
/// every kChurnEvery offered frames.
class LoadLoop {
 public:
  LoadLoop(Rig& rig, u64 window) : rig_(rig), window_(window), ports_(rig.testbed->ports()) {
    frame_.reserve(2048);
  }

  void run_until(Clock::time_point deadline) {
    SpanLog* log = rig_.log.get();
    for (;;) {
      if (Clock::now() >= deadline) return;
      if (offered_ - settled(false) >= window_) {
        // Window full: back off before re-reading the counters the worker
        // writes on every frame, and refresh the drop buckets only now and
        // then (they stay 0 unless something is lost).
        for (int i = 0; i < 256; ++i) cpu_relax();
        if (++full_spins_ % 64 == 0) settled(true);
        continue;
      }
      offer_batch(log);
      if (rig_.w->fib && offered_ >= next_churn_at_) {
        next_churn_at_ += kChurnEvery;
        churn_batch(log);
      }
    }
  }

  /// Wait (bounded) until every offered frame is transmitted or dropped.
  bool drain(std::chrono::milliseconds limit) {
    const auto deadline = Clock::now() + limit;
    while (settled(true) < offered_) {
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  u64 offered() const { return offered_; }
  u64 ring_drops() const { return offered_ - accepted_; }
  u64 churn_batches() const { return churn_batches_; }
  u64 slots_written() const { return slots_written_; }
  u64 max_retired_pending() const { return max_retired_pending_; }
  u64 overflow_violations() const { return overflow_violations_; }

  /// Frames transmitted, or dropped anywhere (NIC ring or a DropReason).
  u64 settled(bool refresh) {
    if (refresh) {
      const core::WorkerStats st = rig_.router->total_stats();
      router_dropped_ = st.dropped() + st.slow_path;
    }
    return rig_.traffic->sunk_packets() + router_dropped_ + ring_drops();
  }

 private:
  void offer_batch(SpanLog* log) {
    SpanScope span(log, SpanName::kOffer, offered_, kOfferBatch);
    const bool stamp = rig_.w->fib != nullptr;
    for (u32 i = 0; i < kOfferBatch; ++i) {
      rig_.traffic->next_frame_into(frame_);
      if (stamp) {
        // The flow sequence field carries the FIB generation live at offer
        // time, for the egress check.
        store_be32(frame_.data() + net::kMinUdpIpv4Frame + 4,
                   static_cast<u32>(rig_.w->fib->generation()));
      }
      nic::NicPort* port = ports_[port_rr_++ % ports_.size()];
      if (port->receive_frame(frame_)) ++accepted_;
      ++offered_;
    }
  }

  void churn_batch(SpanLog* log) {
    Workload& w = *rig_.w;
    const route::CommitResult result = w.apply_churn_batch(log);
    ++churn_batches_;
    if (log != nullptr && log->enabled()) {
      slots_written_ += result.slots_written;
      max_retired_pending_ = std::max<u64>(max_retired_pending_, w.fib->retired_pending());
    }
    if (w.fib->read()->overflow_chunks() > apps::DynamicIpv4ForwardApp::kMaxOverflowChunks) {
      ++overflow_violations_;
    }
  }

  Rig& rig_;
  u64 window_;
  std::span<nic::NicPort* const> ports_;
  net::FrameBuffer frame_;
  u64 port_rr_ = 0;
  u64 offered_ = 0;
  u64 accepted_ = 0;
  u64 router_dropped_ = 0;
  u64 full_spins_ = 0;
  u64 next_churn_at_ = kChurnEvery;
  u64 churn_batches_ = 0;
  u64 slots_written_ = 0;
  u64 max_retired_pending_ = 0;
  u64 overflow_violations_ = 0;
};

double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Per-thread scheduler deltas accumulated over the traced windows.
struct SchedAcc {
  u64 on_cpu_ns = 0;
  u64 runq_ns = 0;
  u64 vcsw = 0;
  void add(const ThreadSched& a, const ThreadSched& b) {
    on_cpu_ns += b.on_cpu_ns - a.on_cpu_ns;
    runq_ns += b.runq_wait_ns - a.runq_wait_ns;
    vcsw += b.voluntary_switches - a.voluntary_switches;
  }
};

/// Destinations the workload's generator produces, in order.
std::vector<u32> destination_sequence(const Workload& w, std::size_t n) {
  gen::TrafficGen traffic(w.traffic);
  net::FrameBuffer frame;
  std::vector<u32> out(n);
  for (auto& d : out) {
    traffic.next_frame_into(frame);
    net::Ipv4Header ip;
    std::memcpy(&ip, frame.data() + sizeof(net::EthernetHeader), sizeof ip);
    d = ip.dst().value;
  }
  return out;
}

/// route.lookup_ns: Ipv4Table::lookup_batch over the workload's
/// destination sequence, outside the router (median of passes).
double lookup_ns(const Workload& w) {
  if (w.kind == Kind::kIpsecImix) return 0.0;
  const auto keys = destination_sequence(w, std::size_t{1} << 18);
  std::vector<route::NextHop> out(keys.size());
  std::vector<double> per_lookup;
  for (int pass = 0; pass < 9; ++pass) {
    const auto t0 = Clock::now();
    if (w.fib) {
      const auto table = w.fib->read();
      table->lookup_batch(keys.data(), out.data(), keys.size());
    } else {
      w.table->lookup_batch(keys.data(), out.data(), keys.size());
    }
    const auto t1 = Clock::now();
    per_lookup.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                         static_cast<double>(keys.size()));
  }
  return median(per_lookup);
}

void check_outputs(const Rig& rig, const LoadLoop& loop, Report& out) {
  const Workload& w = *rig.w;
  const auto samples = rig.sink->samples();
  if (samples.empty()) out.fail("no TX frame was sampled");
  u64 bad = 0;
  std::string first;
  auto flag = [&](const std::string& what) {
    if (bad++ == 0) first = what;
  };
  switch (w.kind) {
    case Kind::kIpv4_64b:
      for (const auto& s : samples) {
        if (!s.ttl_ok) flag("ttl not decremented");
        if (!s.csum_ok) flag("bad IPv4 checksum");
        if (s.port != static_cast<i16>(w.table->lookup(net::Ipv4Addr(s.dst)))) {
          flag("egress port differs from Ipv4Table::lookup");
        }
      }
      break;
    case Kind::kIpsecImix: {
      crypto::SecurityAssociation verifier = *w.sa;
      std::vector<u8> inner;
      for (const auto& s : samples) {
        // Samples are sparse, so reset the anti-replay window per frame:
        // the check is the ICV and the decryption, not the ordering.
        verifier.replay_high = 0;
        verifier.replay_window = 0;
        const auto err = crypto::esp_decapsulate(verifier, rig.sink->frame_of(s), inner);
        if (err != crypto::EspError::kOk) flag(std::string("esp_decapsulate: ") + to_string(err));
      }
      break;
    }
    case Kind::kIpv4ChurnZipf: {
      const ChurnReference& ref = *w.reference;
      for (const auto& s : samples) {
        if (!s.ttl_ok) flag("ttl not decremented");
        if (!s.csum_ok) flag("bad IPv4 checksum");
        if (s.offer_gen < w.base_generation || s.tx_gen < s.offer_gen) {
          flag("generation stamp out of range");
          continue;
        }
        bool match = false;
        for (u64 g = s.offer_gen; g <= s.tx_gen && !match; ++g) {
          match = ref.lookup(s.dst, g - w.base_generation) == static_cast<route::NextHop>(s.port);
        }
        if (!match) flag("egress port matches no FIB generation since offer");
      }
      if (loop.overflow_violations() > 0) out.fail("FIB outgrew the device overflow table");
      if (w.fib->generation() != w.base_generation + loop.churn_batches()) {
        out.fail("a churn batch did not publish exactly one generation");
      }
      break;
    }
  }
  if (bad > 0) out.fail(std::to_string(bad) + " sampled TX frames failed: " + first);
  out.meta["checked_tx_frames"] = std::to_string(samples.size());
  out.meta["unchecked_samples_over_cap"] = std::to_string(rig.sink->unsampled_overflow());
}

/// Per-layer numbers from the traced windows' spans.
void span_metrics(const SpanLog& log, double traced_wall_s, Report& out) {
  std::array<std::vector<double>, static_cast<std::size_t>(SpanName::kCount)> per_item;
  std::array<double, static_cast<std::size_t>(SpanName::kCount)> total_ns{};
  for (const auto& buf : log.buffers()) {
    for (const Span& s : buf) {
      const auto k = static_cast<std::size_t>(s.name);
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      total_ns[k] += dur;
      if (s.items > 0) per_item[k].push_back(dur / s.items);
    }
  }
  auto dist = [&](SpanName name, const std::string& metric, const std::string& unit,
                  double scale) {
    auto& v = per_item[static_cast<std::size_t>(name)];
    out.put(metric + ".n", static_cast<double>(v.size()), "count");
    out.put(metric + ".p50", quantile(v, 0.50) * scale, unit);
    out.put(metric + ".p99", quantile(v, 0.99) * scale, unit);
  };
  dist(SpanName::kPreShade, "apps.pre_shade_ns_pkt", "ns", 1.0);
  dist(SpanName::kPostShade, "apps.post_shade_ns_pkt", "ns", 1.0);
  dist(SpanName::kShade, "apps.shade_ns_pkt", "ns", 1.0);
  dist(SpanName::kOffer, "gen.offer_ns_pkt", "ns", 1.0);
  // Update batches: per batch, not per op.
  for (auto name : {SpanName::kCommit, SpanName::kSync}) {
    auto& v = per_item[static_cast<std::size_t>(name)];
    for (auto& x : v) x *= kChurnOps;
  }
  dist(SpanName::kCommit, "route.commit_us", "us", 1e-3);
  dist(SpanName::kSync, "apps.sync_us", "us", 1e-3);
  out.put("gen.offer_share",
          total_ns[static_cast<std::size_t>(SpanName::kOffer)] / (traced_wall_s * 1e9), "ratio");
  out.put("trace.spans_dropped", static_cast<double>(log.dropped()), "count");
}

}  // namespace

void run_setup_only(const Options& opt, Report& out) {
  auto rig = set_up(opt, false);
  out.put("setup_s", since_start_s(), "s");
  rig->router->stop();
}

void run_wall(const Options& opt, Report& out) {
  auto rig = set_up(opt, true);
  const double setup_s = since_start_s() - rig->w->check_s;
  Workload& w = *rig->w;
  core::Router& router = *rig->router;
  LoadLoop loop(*rig, opt.window);

  // Warm-up: until the minor-fault count stops rising. The churn
  // workload's RIB keeps growing, so a handful of faults per window is its
  // steady state; first-touch of the set-up's buffers is thousands.
  int warm = 0;
  for (; warm < kWarmMaxWindows; ++warm) {
    const u64 f0 = minor_faults();
    loop.run_until(Clock::now() + kWarmWindow);
    if (warm + 1 >= kWarmMinWindows && minor_faults() - f0 <= kWarmFaultsSteady) {
      ++warm;
      break;
    }
  }

  // Timed windows. Untraced: every window counts. Traced: windows alternate
  // tracing off/on, so host-speed drift hits both halves of
  // trace.overhead alike; end-to-end rates never come from a traced run.
  const int windows = std::max(2, static_cast<int>(opt.seconds + 0.5));
  std::vector<double> off_mpps;
  std::vector<double> on_mpps;
  u64 frames = 0;
  u64 bytes = 0;
  double wall_s = 0.0;
  double traced_s = 0.0;
  SchedAcc worker_acc;
  SchedAcc master_acc;
  u64 traced_chunks = 0;
  u64 traced_packets_in = 0;
  u64 timed_faults = 0;  // over every timed window
  u64 timed_allocs = 0;  // over the untraced windows
  u64 traced_allocs = 0;
  u64 traced_frames = 0;
  const core::WorkerStats stats0 = router.total_stats();
  const auto health0 = router.gpu_health(0);
  const u64 ring_drops0 = loop.ring_drops();
  const CpuTicks ticks0 = read_cpu_ticks();
  auto t = Clock::now();
  for (int i = 0; i < windows; ++i) {
    const bool traced = opt.trace && (i % 2 == 1);
    if (rig->log) rig->log->set_enabled(traced);
    const u64 sunk0 = rig->traffic->sunk_packets();
    const u64 bytes0 = rig->traffic->sunk_bytes();
    const auto st0 = router.total_stats();
    ThreadSched ws0, ms0;
    if (traced) {
      ws0 = read_thread_sched(rig->timed->worker_tid());
      ms0 = read_thread_sched(rig->timed->master_tid());
    }
    // Fault and allocation counts bracket the load loop only, not the
    // harness's own /proc reads.
    const u64 f0 = minor_faults();
    const u64 a0 = telemetry::allocations();
    const auto t0 = t;
    loop.run_until(t0 + kTimedWindow);
    t = Clock::now();
    const u64 f1 = minor_faults();
    const u64 a1 = telemetry::allocations();
    const double secs = std::chrono::duration<double>(t - t0).count();
    const u64 n = rig->traffic->sunk_packets() - sunk0;
    (traced ? on_mpps : off_mpps).push_back(static_cast<double>(n) / secs / 1e6);
    if (traced) {
      worker_acc.add(ws0, read_thread_sched(rig->timed->worker_tid()));
      master_acc.add(ms0, read_thread_sched(rig->timed->master_tid()));
      const auto st1 = router.total_stats();
      traced_chunks += st1.chunks - st0.chunks;
      traced_packets_in += st1.packets_in - st0.packets_in;
      traced_allocs += a1 - a0;
      traced_frames += n;
      traced_s += secs;
      timed_faults += f1 - f0;
    } else {
      timed_faults += f1 - f0;
      timed_allocs += a1 - a0;
      frames += n;
      bytes += rig->traffic->sunk_bytes() - bytes0;
      wall_s += secs;
    }
  }
  if (rig->log) rig->log->set_enabled(false);
  const CpuTicks ticks1 = read_cpu_ticks();
  const core::WorkerStats stats1 = router.total_stats();
  const auto health1 = router.gpu_health(0);
  const u64 ring_drops_timed = loop.ring_drops() - ring_drops0;

  if (!loop.drain(std::chrono::seconds(10))) out.fail("router did not drain within 10 s");
  const double rss = peak_rss_mib();
  router.stop();
  const core::ConservationAudit audit = router.audit();
  if (!audit.balanced()) out.fail("Router::audit() not balanced after stop()");
  const u64 tx = rig->traffic->sunk_packets();
  const u64 lost = loop.offered() - std::min(loop.offered(), tx);
  if (audit.tx != tx) out.fail("audit tx differs from frames on the wire");
  if (audit.rx + loop.ring_drops() != loop.offered()) {
    out.fail("frames accepted by the NICs differ from frames the workers fetched");
  }
  out.attempted = loop.offered();
  out.failed = lost;
  check_outputs(*rig, loop, out);

  const double loss = static_cast<double>(lost) / static_cast<double>(loop.offered());
  // Host noise indicator: the share of this guest's CPU time the
  // hypervisor gave to someone else while the windows were timed.
  out.meta["host_steal_share"] =
      std::to_string(ticks1.total > ticks0.total
                         ? static_cast<double>(ticks1.steal - ticks0.steal) /
                               static_cast<double>(ticks1.total - ticks0.total)
                         : 0.0);
  out.meta["warmup_windows"] = std::to_string(warm);
  out.meta["timed_minflt"] = std::to_string(timed_faults);
  out.meta["timed_allocs"] = std::to_string(timed_allocs);
  out.meta["window_frames"] = std::to_string(opt.window);
  out.meta["wall_windows"] = std::to_string(off_mpps.size());
  out.meta["churn_batches"] = std::to_string(loop.churn_batches());

  if (!opt.trace) {
    const double mpps = static_cast<double>(frames) / wall_s / 1e6;
    out.put("fwd_mpps", mpps, "Mpps");
    out.put("fwd_gbps",
            static_cast<double>(bytes + frames * kEthernetWireOverhead) * 8.0 / wall_s / 1e9,
            "Gbps");
    out.put("setup_s", setup_s, "s");
    out.put("rss_mb", rss, "MiB");
    return;
  }

  // --- traced run: per-layer numbers ----------------------------------------
  const double traced_ns = traced_s * 1e9;
  const u32 cap = w.router_config().chunk_capacity;
  out.put("trace.overhead", median(on_mpps) / median(off_mpps), "ratio");
  out.put("core.worker_busy", static_cast<double>(worker_acc.on_cpu_ns) / traced_ns, "ratio");
  out.put("core.master_busy", static_cast<double>(master_acc.on_cpu_ns) / traced_ns, "ratio");
  out.put("core.worker_runq_wait", static_cast<double>(worker_acc.runq_ns) / traced_ns, "ratio");
  out.put("core.master_runq_wait", static_cast<double>(master_acc.runq_ns) / traced_ns, "ratio");
  out.put("core.worker_vcsw_per_kchunk",
          traced_chunks == 0 ? 0.0 : 1000.0 * static_cast<double>(worker_acc.vcsw) /
                                         static_cast<double>(traced_chunks),
          "count");
  out.put("core.chunk_fill",
          traced_chunks == 0 ? 0.0 : static_cast<double>(traced_packets_in) /
                                         (static_cast<double>(traced_chunks) * cap),
          "ratio");
  out.put("core.gather_fill",
          rig->timed->shade_calls() == 0
              ? 0.0
              : rig->timed->gather_fill_sum() / static_cast<double>(rig->timed->shade_calls()),
          "ratio");
  out.put("core.bp_reduced_batches",
          static_cast<double>(stats1.bp_reduced_batches - stats0.bp_reduced_batches), "count");
  out.put("core.bp_diverted_chunks",
          static_cast<double>(stats1.bp_diverted_chunks - stats0.bp_diverted_chunks), "count");
  out.put("apps.cpu_fallback_chunks",
          static_cast<double>(rig->timed->shade_cpu_calls() + (health1.retries - health0.retries) +
                              (health1.failed_batches - health0.failed_batches)),
          "count");
  span_metrics(*rig->log, traced_s, out);
  out.put("route.lookup_ns", lookup_ns(w), "ns");
  out.put("route.slots_per_commit",
          loop.churn_batches() == 0 ? 0.0
                                    : static_cast<double>(loop.slots_written()) /
                                          static_cast<double>(out.metrics["route.commit_us.n"].value),
          "count");
  out.put("route.retired_pending", static_cast<double>(loop.max_retired_pending()), "count");
  out.put("nic.rx_ring_drops", static_cast<double>(ring_drops_timed), "count");
  out.put("loss_frac", loss, "ratio");
  out.put("proc.allocs_per_kpkt",
          traced_frames == 0 ? 0.0 : 1000.0 * static_cast<double>(traced_allocs) /
                                         static_cast<double>(traced_frames),
          "count");
  out.put("proc.minflt_timed", static_cast<double>(timed_faults), "count");

  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/perfbench-traces", 0755);
  const std::string path = ".bench_build/perfbench-traces/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".csv";
  rig->log->write(path);
  out.meta["trace_file"] = path;
}

}  // namespace perfbench
