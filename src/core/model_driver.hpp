// The deterministic scheduler over core/stages (DESIGN.md §4).
//
// core::Router and ModelDriver are two schedulers over one data path: the
// per-chunk stage functions in core/stages. The Router runs them on worker
// and master threads joined by SPSC rings; ModelDriver runs the same
// stages in the same order on one host thread — generator → NIC DMA →
// io-engine → RX admission → pre-shade → gather → shade → post-shade →
// TX — with every stage charging its modeled resource through the ambient
// CpuChargeScope. The sustainable rate is work / busiest-resource-time on
// that ledger (the model clock); it produces every Figure 5 / 6 / 11
// number. What only this scheduler has: the ledger, the I/O-only modes
// and minimal forwarding. What only the Router has: threads, backpressure,
// supervision and GPU retry/health.
#pragma once

#include <optional>
#include <string>

#include "core/shader.hpp"
#include "core/stages.hpp"
#include "core/testbed.hpp"
#include "gen/source.hpp"
#include "gen/traffic.hpp"
#include "integrity/integrity.hpp"

namespace ps::core {

struct ModelResult {
  u64 offered = 0;     // frames handed to the NICs
  u64 accepted = 0;    // frames that fit in RX rings
  u64 forwarded = 0;   // frames transmitted
  u64 dropped = 0;
  u64 slow_path = 0;

  double input_gbps = 0.0;   // offered-side wire throughput at the bottleneck
  double output_gbps = 0.0;  // transmitted wire throughput
  double mpps = 0.0;         // forwarded packet rate
  std::string bottleneck;
};

class ModelDriver {
 public:
  /// `shader` == nullptr runs minimal forwarding (RX + TX, no lookup):
  /// the Figure 5 / Figure 6 "forwarding" workload. Minimal forwarding
  /// echoes each packet to a fixed peer port (0<->1, 2<->3, ...), or to a
  /// port on the other node when `node_crossing` is set.
  ModelDriver(Testbed& testbed, Shader* shader, RouterConfig config);

  /// Drive ~`target_packets` through the pipeline and report model-clock
  /// throughput.
  ModelResult run(gen::TrafficGen& traffic, u64 target_packets);

  /// Same, fed by any FrameSource (e.g. cap::PcapReplayer). A finite
  /// source ends the run early: when it stops producing, everything
  /// already in the rings has been drained and the result covers exactly
  /// the frames the source emitted. Not valid with IoMode::kTxOnly (TX
  /// synthesis needs the generator itself).
  ModelResult run(gen::FrameSource& source, u64 target_packets);

  /// Minimal-forwarding behaviour flags.
  void set_node_crossing(bool v) { node_crossing_ = v; }
  /// Restrict the run to the first `n` worker cores (0 = all); used by the
  /// single-core Figure 5 sweep.
  void set_active_workers(int n) { active_workers_ = n; }
  /// RX-only (drop after fetch) and TX-only (synthesize at TX) modes for
  /// Figure 6's RX/TX series.
  enum class IoMode { kForward, kRxOnly, kTxOnly };
  void set_io_mode(IoMode mode) { io_mode_ = mode; }

  /// Resource charges accumulated by the last run() (for ablation benches
  /// that inspect per-resource busy time directly).
  const perf::CostLedger& ledger() const { return ledger_; }

  /// Attach the data-plane integrity layer for overhead ablation: the
  /// stages run their boundary checks (RX admission, gather, scatter,
  /// pre-TX) and sampled shadow verification, charging the CPU cost to
  /// the ledger so benches can price them. One shadow sampler spans all
  /// nodes, and a shadow trip is only counted (no health fallback here).
  /// Null = off (the default); the checker must outlive the driver.
  void set_integrity(integrity::IntegrityChecker* checker) { integrity_ = checker; }

 private:
  /// Shared pipeline loop: `txonly_traffic` is non-null only for the
  /// TrafficGen overload (TX-only mode synthesizes frames directly).
  ModelResult run_impl(gen::FrameSource& source, gen::TrafficGen* txonly_traffic,
                       u64 target_packets);

  struct WorkerCtx {
    int core = 0;
    int node = 0;
    iengine::IoHandle* handle = nullptr;
  };

  /// Minimal forwarding (no shader): echo to the peer port.
  void minimal_forward(iengine::PacketChunk& chunk) const;
  i16 minimal_out_port(int in_port) const;

  Testbed& testbed_;
  Shader* shader_;
  RouterConfig config_;
  integrity::IntegrityChecker* integrity_ = nullptr;
  stages::ShadowVerifier shadow_;
  perf::CostLedger ledger_;
  std::vector<WorkerCtx> workers_;
  std::vector<std::vector<JobPtr>> node_pending_;  // gathered jobs per node
  bool node_crossing_ = false;
  int active_workers_ = 0;
  IoMode io_mode_ = IoMode::kForward;
};

}  // namespace ps::core
