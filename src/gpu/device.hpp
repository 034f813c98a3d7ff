// Simulated NVIDIA GTX480 device: device-memory allocation, host<->device
// copies, kernel launches, CUDA-style streams, and the copy/exec engine
// timeline that models "concurrent copy and execution" (section 5.4).
//
// Functional results come from SimtExecutor; all times come from the
// calibrated model in ps::perf. Copies additionally charge the IOH channel
// the card hangs off, which is how GPU traffic competes with NIC DMA for
// the ~40 Gbps dual-IOH budget (sections 3.2, 6.3).
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "gpu/executor.hpp"
#include "pcie/topology.hpp"
#include "perf/ledger.hpp"
#include "perf/model.hpp"

namespace ps::gpu {

class GpuDevice;

/// Shared memory-accounting block for one device. Buffers co-own it so a
/// buffer that outlives its GpuDevice (e.g. app state torn down after the
/// testbed) still releases its accounting safely instead of dereferencing
/// a dead device.
struct DeviceMemAccount {
  Mutex mu;
  u64 allocated GUARDED_BY(mu) = 0;
};

/// RAII device-memory allocation (the CUDA cudaMalloc/cudaFree pair).
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(GpuDevice* device, std::size_t bytes);
  ~DeviceBuffer();

  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  u8* data() noexcept { return storage_.data(); }
  const u8* data() const noexcept { return storage_.data(); }
  std::size_t size() const noexcept { return storage_.size(); }
  bool valid() const noexcept { return account_ != nullptr; }

  template <typename T>
  T* as() noexcept {
    return reinterpret_cast<T*>(storage_.data());
  }
  template <typename T>
  const T* as() const noexcept {
    return reinterpret_cast<const T*>(storage_.data());
  }

 private:
  void release() noexcept;

  std::shared_ptr<DeviceMemAccount> account_;
  std::vector<u8> storage_;
};

using StreamId = u32;
inline constexpr StreamId kDefaultStream = 0;

/// Outcome of one device operation. Real CUDA calls can fail (launch
/// errors, copy timeouts, a wedged device); every device API reports a
/// status instead of asserting so the caller can retry or fall back.
enum class GpuStatus : u8 {
  kOk = 0,
  kLaunchFailed,  // kernel launch rejected by the driver
  kCopyFailed,    // DMA transfer error
  kTimeout,       // operation exceeded its watchdog deadline
  kDeviceSick,    // device-wide failure (all ops fail until it recovers)
};

const char* to_string(GpuStatus status);

/// Status + timing of one device operation on the modeled clock. On
/// failure the functional work did not happen and the stream tail does
/// not advance (start == end == the would-be start time).
struct GpuResult {
  GpuStatus status = GpuStatus::kOk;
  Picos start = 0;
  Picos end = 0;
  bool ok() const { return status == GpuStatus::kOk; }
  Picos duration() const { return end - start; }
};

/// Legacy name: call sites that only consume timing keep compiling.
using OpTiming = GpuResult;

/// Data-path operation classes, for the op observer below.
enum class GpuOp : u8 { kH2d = 0, kKernel, kD2h };

/// One entry of a scatter D2H descriptor list: `dst.size()` bytes starting
/// at `src_offset` in the device source buffer land at `dst` on the host.
struct ScatterSeg {
  std::span<u8> dst;
  std::size_t src_offset = 0;
};

struct KernelLaunch {
  std::string name;
  u32 threads = 0;
  KernelBody body;
  perf::KernelCost cost;
  bool track_divergence = false;
};

class GpuDevice {
 public:
  GpuDevice(int gpu_id, const pcie::Topology& topo,
            std::shared_ptr<SimtExecutor> executor = nullptr);

  int gpu_id() const { return gpu_id_; }
  int numa_node() const { return node_; }

  void set_ledger(perf::CostLedger* ledger) { ledger_ = ledger; }

  /// Attach a chaos-test fault injector (nullptr = faults off). Checked
  /// points: "gpu.sick" (device-wide, all ops), "gpu.launch", "gpu.copy",
  /// "gpu.timeout" — all *loud* (a failing status returns) — plus the
  /// *silent* corruption points "pcie.h2d_corrupt", "pcie.d2h_corrupt",
  /// and "gpu.bad_result", which flip data while still reporting kOk.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
    if (injector_ != nullptr) {
      injector_->register_point(fault::Point::kPcieH2dCorrupt);
      injector_->register_point(fault::Point::kPcieD2hCorrupt);
      injector_->register_point(fault::Point::kGpuBadResult);
    }
  }

  /// Allocate device memory; throws std::bad_alloc past the 1.5 GB card
  /// capacity (section 2.1).
  DeviceBuffer alloc(std::size_t bytes) { return DeviceBuffer(this, bytes); }
  u64 allocated_bytes() const {
    MutexLock lock(mem_->mu);
    return mem_->allocated;
  }

  /// Create an additional stream (stream 0 always exists). Multiple live
  /// streams put the device in "streamed" mode, which adds the per-CUDA-
  /// call overhead the paper observed hurting lightweight kernels (§5.4).
  StreamId create_stream();
  u32 stream_count() const {
    MutexLock lock(op_mu_);
    return static_cast<u32>(streams_.size());
  }

  // --- operations ----------------------------------------------------------
  // Each performs the work immediately (functionally) and returns status +
  // modeled timing: start = max(submit_time, stream tail, engine free).
  // On an injected fault the work is skipped and a failing status returns.

  GpuResult memcpy_h2d(DeviceBuffer& dst, std::size_t dst_offset, std::span<const u8> src,
                       StreamId stream = kDefaultStream, Picos submit_time = 0);
  GpuResult memcpy_d2h(std::span<u8> dst, const DeviceBuffer& src, std::size_t src_offset,
                       StreamId stream = kDefaultStream, Picos submit_time = 0);

  /// Scatter variant of memcpy_d2h: one DMA transaction driven by a
  /// descriptor list, writing each segment straight to its host address
  /// (e.g. a packet frame) instead of bouncing through a contiguous
  /// staging buffer. Costed as a single transfer of the summed bytes —
  /// the DMA engine walks the list at line rate, exactly as NIC DMA
  /// already scatters per-packet — so it charges one latency + one driver
  /// call, not one per segment. Fault semantics match memcpy_d2h: a
  /// "pcie.d2h_corrupt" (or deferred bad-result) hit flips one bit in the
  /// first non-empty segment while still reporting kOk.
  GpuResult memcpy_d2h_scatter(std::span<const ScatterSeg> segs, const DeviceBuffer& src,
                               StreamId stream = kDefaultStream, Picos submit_time = 0);

  /// Launch a kernel; returns status + modeled timing and fills `stats_out`
  /// (if non-null) with functional divergence statistics.
  GpuResult launch(const KernelLaunch& kernel, StreamId stream = kDefaultStream,
                   Picos submit_time = 0, ExecStats* stats_out = nullptr);

  /// Health probe: a trivial no-op launch through the same fault gates.
  /// The watchdog uses this to decide when a sick device may be re-admitted.
  GpuResult probe(Picos submit_time = 0);

  using OpObserver = std::function<void(GpuOp, const GpuResult&)>;
  /// Observe every *successful* data-path op (h2d / kernel / d2h; probes
  /// excluded). Called on the op's calling thread, after the op completes,
  /// with the device's op lock held — keep the callback tiny and never
  /// call back into the device. Null detaches. The pipeline tracer uses
  /// this to stamp batch spans at the device stage boundaries.
  void set_op_observer(OpObserver cb) {
    MutexLock lock(op_mu_);
    op_observer_ = std::move(cb);
  }

  /// Modeled completion time of everything enqueued on a stream.
  Picos stream_tail(StreamId stream) const {
    MutexLock lock(op_mu_);
    return streams_.at(stream);
  }

  /// Modeled completion time of all streams (cudaDeviceSynchronize).
  Picos synchronize() const;

  /// Reset all modeled clocks to zero (between benchmark runs).
  void reset_timeline();

  /// Cumulative counters. Mutated by ops under op_mu_; sampling threads
  /// (benches, telemetry probes) take the same lock for a torn-free read.
  u64 kernels_launched() const {
    MutexLock lock(op_mu_);
    return kernels_launched_;
  }
  u64 bytes_h2d() const {
    MutexLock lock(op_mu_);
    return bytes_h2d_;
  }
  u64 bytes_d2h() const {
    MutexLock lock(op_mu_);
    return bytes_d2h_;
  }

 private:
  friend class DeviceBuffer;

  Picos stream_call_overhead() const REQUIRES(op_mu_);
  void charge_copy(u64 bytes, perf::Direction dir) REQUIRES(op_mu_);
  /// Fault gate for one op: "gpu.sick" first, then the op's own point.
  /// Returns kOk when no injector is attached or nothing fires.
  GpuStatus check_fault(std::string_view op_point, GpuStatus op_status);

  int gpu_id_;
  int node_;
  int ioh_;
  std::shared_ptr<SimtExecutor> executor_;
  perf::CostLedger* ledger_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  // Serializes device operations: a master thread and a control-plane
  // table update (Ipv4ForwardApp::sync) may touch one device
  // concurrently, like the CUDA driver's per-context lock.
  mutable Mutex op_mu_;

  OpObserver op_observer_ GUARDED_BY(op_mu_);

  std::vector<Picos> streams_ GUARDED_BY(op_mu_);  // per-stream tail time
  Picos exec_engine_free_ GUARDED_BY(op_mu_) = 0;
  Picos copy_engine_free_ GUARDED_BY(op_mu_) = 0;

  std::shared_ptr<DeviceMemAccount> mem_ = std::make_shared<DeviceMemAccount>();
  // Set by an injected "gpu.bad_result": the kernel "completed" but one
  // result is wrong. The device cannot know which host buffer will read
  // the results, so the corruption materializes on the next D2H copy.
  bool pending_bad_result_ GUARDED_BY(op_mu_) = false;
  u64 kernels_launched_ GUARDED_BY(op_mu_) = 0;
  u64 bytes_h2d_ GUARDED_BY(op_mu_) = 0;
  u64 bytes_d2h_ GUARDED_BY(op_mu_) = 0;
};

}  // namespace ps::gpu
