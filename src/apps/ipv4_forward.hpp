// IPv4 forwarding application (section 6.2.1): DIR-24-8 longest-prefix
// match, GPU-offloaded. The pre-shader classifies/rewrites and gathers
// destination addresses; the GPU kernel performs the table lookup; the
// post-shader scatters packets to egress ports.
//
// The table is either fixed (a caller-owned Ipv4Table that never changes)
// or live (a route::Ipv4Fib whose routes change while the router forwards,
// section 7). Host-side lookups read the FIB's published generation under
// an epoch pin (no lock, no reference count — DESIGN.md §14); device-side
// tables are double-buffered and refreshed by sync() (lpm_forward.hpp).
#pragma once

#include "apps/lpm_forward.hpp"
#include "core/shader.hpp"
#include "route/fib_manager.hpp"

namespace ps::apps {

class Ipv4ForwardApp final : public core::Shader {
 public:
  /// Fixed table: `table` must outlive the app and never change.
  explicit Ipv4ForwardApp(const route::Ipv4Table& table);
  /// The app keeps a reference; a temporary table would dangle.
  explicit Ipv4ForwardApp(const route::Ipv4Table&&) = delete;
  /// Live table: `fib` must outlive the app.
  explicit Ipv4ForwardApp(route::Ipv4Fib& fib);

  const char* name() const override { return "ipv4-forward"; }
  void bind_gpu(gpu::GpuDevice& device) override;
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  /// Control plane: push the FIB's current generation to every bound GPU
  /// (standby upload, then flip). Call after fib.commit(); safe while the
  /// data path runs. Returns the devices refreshed — always 0 for a fixed
  /// table.
  int sync();

  /// Device capacity for >24-bit overflow chunks per table copy: the
  /// 15-bit chunk index a TBL24 entry holds.
  static constexpr u32 kMaxOverflowChunks = 32768;

  /// Ablation switch for benchmarking: when off, the CPU paths fall back to
  /// the scalar per-packet lookup (the pre-PR5 behaviour). On by default.
  void set_batched_lookup(bool on) { batched_lookup_ = on; }

 private:
  struct TableCopy {
    gpu::DeviceBuffer tbl24;
    gpu::DeviceBuffer tbl_long;
  };

  /// The table to look up in, pinned for one chunk when it is live.
  route::Ipv4Fib::ReadGuard read() const;
  static void upload(lpm::GpuState<TableCopy>& st, int slot, const route::Ipv4Table& table);

  const route::Ipv4Table* table_ = nullptr;
  const route::Ipv4Fib* fib_ = nullptr;
  lpm::GpuStates<TableCopy> gpu_state_;
  bool batched_lookup_ = true;
};

}  // namespace ps::apps
