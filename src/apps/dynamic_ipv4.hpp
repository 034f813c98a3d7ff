// IPv4 forwarding with a live control plane (section 7): routes come from
// a route::Ipv4Fib and can change while the router forwards.
//
// Host side, each data-path call pins an epoch and reads the published
// FIB generation through fib_.read() (no lock, no reference count; the
// generation is reclaimed only after every pin taken before its
// retirement is released — DESIGN.md §14). Device side, each GPU holds TWO copies of the DIR-24-8
// arrays; sync() uploads a new FIB generation into the standby copy and
// flips an atomic index, so kernels never observe a half-written table —
// the "update forwarding table in GPU memory without disturbing the
// data-path" problem the paper calls out, solved the way it suggests.
#pragma once

#include <atomic>
#include <memory>
#include <unordered_map>

#include "common/atomic_shim.hpp"
#include "core/shader.hpp"
#include "route/fib_manager.hpp"

namespace ps::apps {

class DynamicIpv4ForwardApp final : public core::Shader {
 public:
  explicit DynamicIpv4ForwardApp(route::Ipv4Fib& fib);

  const char* name() const override { return "ipv4-forward-dynamic"; }
  void bind_gpu(gpu::GpuDevice& device) override;
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  /// Control-plane: push the FIB's current generation to every bound GPU
  /// (upload into the standby table copy, then flip). Call after
  /// fib.commit(); safe while the data path runs. Returns the number of
  /// devices refreshed.
  int sync();

  static constexpr u32 kMaxBatchItems = 65536;
  /// Device capacity for >24-bit overflow chunks (per table copy).
  static constexpr u32 kMaxOverflowChunks = 32768;

 private:
  struct GpuState {
    gpu::GpuDevice* device = nullptr;
    gpu::DeviceBuffer tbl24[2];
    gpu::DeviceBuffer tbl_long[2];
    gpu::DeviceBuffer input;
    gpu::DeviceBuffer output;
    // mc: app.dyn.active -- double-buffer slot index; release swap after upload
    ps::atomic<int> active{0};
    u64 generation = 0;  // FIB generation loaded into the active copy
  };

  void upload(GpuState& st, int slot, const route::Ipv4Table& table);

  route::Ipv4Fib& fib_;
  std::unordered_map<int, std::unique_ptr<GpuState>> gpu_state_;
};

}  // namespace ps::apps
