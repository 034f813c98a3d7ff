// IPv6 forwarding application (section 6.2.2): binary search on prefix
// lengths, seven hash probes per lookup — the memory-intensive workload
// where GPU acceleration pays off most (Figure 11(b)).
//
// Like Ipv4ForwardApp, the table is either fixed (a caller-owned
// Ipv6Table) or live (a route::Ipv6Fib read under an epoch pin). Both the
// GPU copies and the batched CPU lookups use the table's flattened form
// (Ipv6Table::flat()), which every build() refreshes, so the CPU path
// follows commits without a sync().
#pragma once

#include "apps/lpm_forward.hpp"
#include "core/shader.hpp"
#include "route/fib_manager.hpp"

namespace ps::apps {

class Ipv6ForwardApp final : public core::Shader {
 public:
  /// Fixed table: `table` must outlive the app and never change.
  explicit Ipv6ForwardApp(const route::Ipv6Table& table);
  /// The app keeps a reference; a temporary table would dangle.
  explicit Ipv6ForwardApp(const route::Ipv6Table&&) = delete;
  /// Live table: `fib` must outlive the app.
  explicit Ipv6ForwardApp(route::Ipv6Fib& fib);

  const char* name() const override { return "ipv6-forward"; }
  void bind_gpu(gpu::GpuDevice& device) override;
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  /// Push the FIB's current generation to every bound GPU (standby upload,
  /// then flip). Call after fib.commit(); safe while the data path runs.
  /// Returns the devices refreshed — always 0 for a fixed table.
  int sync();

 private:
  struct TableCopy {
    gpu::DeviceBuffer slots;
    gpu::DeviceBuffer offsets;  // u32[129]
    gpu::DeviceBuffer masks;    // u32[129]
    route::NextHop default_nh = route::kNoRoute;
  };

  /// The table to look up in, pinned for one chunk when it is live.
  route::Ipv6Fib::ReadGuard read() const;
  static void upload(lpm::GpuState<TableCopy>& st, int slot, const route::Ipv6Table& table);

  const route::Ipv6Table* table_ = nullptr;
  const route::Ipv6Fib* fib_ = nullptr;
  lpm::GpuStates<TableCopy> gpu_state_;
};

}  // namespace ps::apps
