// Capture side of ps::cap (DESIGN.md §18): passive wire taps that record
// live traffic into pcap files, plus the in-memory collector the expect
// harness uses to grab a router's TX output. A tap is a WireSink that
// tees — it records and forwards, so it can interpose on an existing
// port→sink edge without changing behaviour.
#pragma once

#include <atomic>
#include <vector>

#include "common/atomic_shim.hpp"
#include "common/thread_annotations.hpp"
#include "gen/pcap.hpp"
#include "nic/nic.hpp"
#include "nic/wire.hpp"
#include "telemetry/metrics.hpp"

namespace ps::cap {

/// Tee: records frames into a PcapWriter, then forwards to the downstream
/// sink (null = record only). With a `port_filter` >= 0, only that port's
/// frames are recorded (all are still forwarded). Thread-safe — the
/// writer serializes, the counters are relaxed atomics.
class PortTap final : public nic::WireSink {
 public:
  explicit PortTap(gen::PcapWriter& writer, nic::WireSink* downstream = nullptr,
                   int port_filter = -1)
      : writer_(writer), downstream_(downstream), port_filter_(port_filter) {}

  void on_frame(int port, std::span<const u8> frame) override;

  /// Re-point the downstream sink (used when interposing on a live edge).
  void set_downstream(nic::WireSink* sink) { downstream_ = sink; }
  nic::WireSink* downstream() const { return downstream_; }

  u64 frames_tapped() const { return frames_.load(std::memory_order_relaxed); }
  u64 bytes_tapped() const { return bytes_.load(std::memory_order_relaxed); }

  /// Expose the tap under `cap.tap.*` (registry-sync'd with the README
  /// metric table): cap.tap.frames, cap.tap.bytes.
  void register_metrics(telemetry::MetricsRegistry& registry);

 private:
  gen::PcapWriter& writer_;
  nic::WireSink* downstream_;
  int port_filter_;
  // mc: cap.tap -- relaxed tap accounting (wire-side writer)
  ps::atomic<u64> frames_{0};
  // mc: cap.tap
  ps::atomic<u64> bytes_{0};
};

/// Interpose `tap` on `port`'s TX edge: the tap takes over as the port's
/// wire sink and forwards to whatever sink was there before.
void attach_tx_tap(nic::NicPort& port, PortTap& tap);

/// In-memory TX capture (thread-safe): stores every frame it sees and the
/// port it left through. The expect harness compares its contents against
/// golden captures.
class FrameCollector final : public nic::WireSink {
 public:
  void on_frame(int port, std::span<const u8> frame) override {
    MutexLock lock(mu_);
    frames_.emplace_back(frame.begin(), frame.end());
    ports_.push_back(port);
  }

  std::vector<std::vector<u8>> frames() const {
    MutexLock lock(mu_);
    return frames_;
  }

  /// ports()[i] is the port frames()[i] left through.
  std::vector<int> ports() const {
    MutexLock lock(mu_);
    return ports_;
  }

  u64 size() const {
    MutexLock lock(mu_);
    return frames_.size();
  }

 private:
  mutable Mutex mu_;
  std::vector<std::vector<u8>> frames_ GUARDED_BY(mu_);
  std::vector<int> ports_ GUARDED_BY(mu_);
};

}  // namespace ps::cap
