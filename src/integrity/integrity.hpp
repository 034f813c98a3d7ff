// End-to-end data-plane integrity (silent-corruption defense).
//
// The pipeline hands every packet across four trust boundaries — NIC DMA
// into the huge buffer, gather/H2D over PCIe, GPU shading, and D2H/scatter
// back to TX — and until this layer the only check in the tree was the
// IPv4 header checksum at parse. A flipped bit in any of those hand-offs
// sailed through untouched. The defense has three legs:
//
//  1. *Boundary stamping.* The NIC deposits a CRC32C over the received
//     bytes next to each descriptor (hardware, zero CPU cost); the stamp
//     travels in the chunk's per-packet metadata and is re-checked at
//     stage boundaries (RX admission, pre-shade gather, post-scatter,
//     pre-TX-doorbell). A mismatch is counted under the stage where it
//     was first seen — `integrity.corrupt_at.<stage>` — so corruption is
//     not just caught but *localized*. Stamps are retaken after each
//     sanctioned mutation point (pre-shade header rewrite, post-shade
//     result application); anything that changes bytes between stamps is
//     by definition corruption.
//
//  2. *Sampled GPU shadow verification.* Byte corruption is only half the
//     story: a miscomputing GPU (or a corrupted PCIe transfer of the
//     shading inputs/outputs) produces *wrong results over intact bytes*,
//     which no CRC can see. The master re-shades 1-in-N batches on the
//     CPU path (differential tests prove the two byte-identical) and
//     compares outputs. A mismatch quarantines the GPU result, adopts the
//     CPU one, escalates sampling to every batch, and — past a strike
//     threshold — trips the device into the PR 1 gpu_health CPU-only
//     fallback. The state machine lives in core::stages::ShadowVerifier
//     (the Router applies its trip to the per-node health); this class
//     owns the sampling decision + counters.
//
//  3. *Quarantine & re-shade.* A corrupted chunk is never TX'd: packets
//     whose bytes fail a boundary check are dropped with
//     DropReason::kIntegrityFail before the doorbell, and a mismatched
//     GPU batch is re-shaded on the CPU exactly once — keeping the PR 2
//     packet-conservation audit exact (every quarantined packet is either
//     repaired-and-sent or accounted as a drop).
//
// Thread model: stamp/verify run on whichever thread owns the chunk at
// that boundary (workers at rx/scatter/tx, the master at gather/shadow),
// so counters are multi-writer relaxed atomics — monotonic, safely
// sampleable mid-run, and race-free under TSan.
#pragma once

#include <array>
#include <atomic>

#include "common/atomic_shim.hpp"
#include "common/types.hpp"
#include "iengine/chunk.hpp"
#include "integrity/crc32c.hpp"

namespace ps::telemetry {
class MetricsRegistry;
}

namespace ps::integrity {

/// Pipeline boundary where a stamp check runs (= where corruption is
/// localized). kShadow is the GPU-result comparison, not a byte check.
enum class Stage : u8 {
  kRx = 0,   // RX admission: huge-buffer bytes vs the NIC's wire CRC
  kGather,   // master, entry to shading (post worker->master hand-off)
  kScatter,  // worker, results popped from the master (pre post-shade)
  kTx,       // pre-TX-doorbell, the last look before the wire
  kShadow,   // GPU output vs CPU re-shade of the sampled batch
  kCount,
};

inline constexpr std::size_t kNumStages = static_cast<std::size_t>(Stage::kCount);

const char* to_string(Stage stage);

struct IntegrityConfig {
  /// Master switch for boundary stamping + checks (shadow sampling has its
  /// own knob below so the two overheads can be ablated independently).
  bool stamping = true;
  /// Shadow-verify 1 in N GPU-shaded batches on the CPU path (0 = never).
  u32 shadow_sample_every = 64;
  /// After a shadow mismatch, verify *every* batch for this many batches
  /// (escalation window; fresh mismatches inside the window extend it).
  u32 shadow_escalate_batches = 64;
  /// Mismatched batches within one escalation window before the device is
  /// reported suspect to the gpu_health machinery (CPU-only fallback).
  u32 shadow_trip_threshold = 3;
};

class IntegrityChecker {
 public:
  explicit IntegrityChecker(IntegrityConfig config = {}) : config_(config) {}

  IntegrityChecker(const IntegrityChecker&) = delete;
  IntegrityChecker& operator=(const IntegrityChecker&) = delete;

  const IntegrityConfig& config() const { return config_; }
  bool stamping() const { return config_.stamping; }

  /// (Re)stamp every live packet: CRC32C over the packet's current bytes.
  /// Called after each sanctioned mutation point. Charges the model the
  /// hardware-CRC CPU rate via the ambient CpuChargeScope.
  void stamp_chunk(iengine::PacketChunk& chunk);

  /// Re-check every live (non-dropped) packet against its stamp. Packets
  /// that newly fail are flagged in the chunk (integrity_bad) and counted
  /// under `stage`; already-flagged packets are not recounted. Returns the
  /// number of newly corrupt packets.
  u32 verify_chunk(iengine::PacketChunk& chunk, Stage stage);

  /// Shadow-verification sampling decision, one call per GPU-shaded batch.
  /// While the caller is inside an escalation window every batch is
  /// verified; otherwise 1 in shadow_sample_every.
  bool should_shadow_verify(u64 batch_index, bool escalated) const {
    if (config_.shadow_sample_every == 0) return false;
    if (escalated) return true;
    return batch_index % config_.shadow_sample_every == 0;
  }

  // --- accounting hooks driven by the router -------------------------------
  void count_shadow_batch() { shadow_batches_.fetch_add(1, std::memory_order_relaxed); }
  void count_shadow_mismatch(u64 packets) {
    shadow_mismatch_batches_.fetch_add(1, std::memory_order_relaxed);
    corrupt_at_[static_cast<std::size_t>(Stage::kShadow)].fetch_add(
        packets, std::memory_order_relaxed);
  }
  void count_reshaded_batch() { reshaded_batches_.fetch_add(1, std::memory_order_relaxed); }
  void count_quarantined(u64 packets) {
    quarantined_packets_.fetch_add(packets, std::memory_order_relaxed);
  }
  void count_device_suspect() { devices_tripped_.fetch_add(1, std::memory_order_relaxed); }

  // --- counters ------------------------------------------------------------
  u64 corrupt_at(Stage stage) const {
    return corrupt_at_[static_cast<std::size_t>(stage)].load(std::memory_order_relaxed);
  }
  u64 total_corrupt() const;
  u64 verified_packets() const { return verified_packets_.load(std::memory_order_relaxed); }
  u64 stamped_packets() const { return stamped_packets_.load(std::memory_order_relaxed); }
  u64 shadow_batches() const { return shadow_batches_.load(std::memory_order_relaxed); }
  u64 shadow_mismatch_batches() const {
    return shadow_mismatch_batches_.load(std::memory_order_relaxed);
  }
  u64 reshaded_batches() const { return reshaded_batches_.load(std::memory_order_relaxed); }
  u64 quarantined_packets() const {
    return quarantined_packets_.load(std::memory_order_relaxed);
  }
  u64 devices_tripped() const { return devices_tripped_.load(std::memory_order_relaxed); }

  /// Register the `integrity.*` probes (see README's exported-metrics table).
  void register_metrics(telemetry::MetricsRegistry& registry);

 private:
  IntegrityConfig config_;
  // mc: integrity.corrupt_at -- relaxed chaos-injection arm counters
  std::array<ps::atomic<u64>, kNumStages> corrupt_at_{};
  // mc: integrity.counter -- relaxed accounting counters
  ps::atomic<u64> verified_packets_{0};
  // mc: integrity.counter
  ps::atomic<u64> stamped_packets_{0};
  // mc: integrity.counter
  ps::atomic<u64> shadow_batches_{0};
  // mc: integrity.counter
  ps::atomic<u64> shadow_mismatch_batches_{0};
  // mc: integrity.counter
  ps::atomic<u64> reshaded_batches_{0};
  // mc: integrity.counter
  ps::atomic<u64> quarantined_packets_{0};
  // mc: integrity.counter
  ps::atomic<u64> devices_tripped_{0};
};

}  // namespace ps::integrity
