// What the IPv4 and IPv6 forwarding apps share: per-GPU double-buffered
// lookup tables, the gathered or streamed lookup shade (Figure 10(b)/(c)),
// and the post-shader that turns next hops into egress ports.
//
// Double buffering is the paper's answer to "update the forwarding table
// in GPU memory without disturbing the data path" (section 7): each GPU
// holds two table copies, sync() uploads a newer table generation into
// the standby copy and flips an atomic index, so a kernel never reads a
// half-written table. A fixed table only ever fills copy 0.
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/atomic_shim.hpp"
#include "core/shader.hpp"
#include "perf/calibration.hpp"
#include "perf/ledger.hpp"
#include "route/ipv4_table.hpp"

namespace ps::apps::lpm {

/// Maximum GPU-eligible packets per shading batch.
inline constexpr u32 kMaxBatchItems = 65536;
/// Packets gathered on the stack per lookup_batch call in process_cpu.
inline constexpr u32 kCpuBatchBlock = 256;

/// One GPU's state: two table copies plus key/next-hop staging.
template <typename Copy>
struct GpuState {
  gpu::GpuDevice* device = nullptr;
  bool live = false;  // the table can change: copies get growth headroom
  Copy copies[2];
  gpu::DeviceBuffer input;   // gathered keys
  gpu::DeviceBuffer output;  // u16 next hop per key
  // mc: app.dyn.active -- double-buffer slot index; release swap after upload
  ps::atomic<int> active{0};
  u64 generation = 0;  // table generation loaded into the active copy
};

template <typename Copy>
using GpuStates = std::unordered_map<int, std::unique_ptr<GpuState<Copy>>>;

/// Make `buf` hold at least `needed` bytes (at most `cap`). A fixed table
/// gets exactly what it needs; a live one half again as headroom, so a
/// table that grows under churn does not reallocate on every sync().
template <typename Copy>
void reserve(const GpuState<Copy>& st, gpu::DeviceBuffer& buf, std::size_t needed,
             std::size_t cap) {
  if (buf.valid() && buf.size() >= needed) return;
  buf = st.device->alloc(st.live ? std::min(needed + needed / 2, cap) : needed);
}

template <typename T>
void copy_in(gpu::GpuDevice& device, gpu::DeviceBuffer& buf, std::span<const T> src) {
  if (src.empty()) return;
  device.memcpy_h2d(buf, 0, {reinterpret_cast<const u8*>(src.data()), src.size_bytes()});
}

/// bind_gpu(): staging for `key_bytes`-sized keys, then the table — the
/// FIB's current generation, or `fixed` when `fib` is null — into copy 0.
template <typename Copy, typename Fib, typename Table, typename Upload>
void bind(GpuStates<Copy>& states, gpu::GpuDevice& device, std::size_t key_bytes,
          const Fib* fib, const Table* fixed, Upload upload) {
  if (states.contains(device.gpu_id())) return;
  auto st = std::make_unique<GpuState<Copy>>();
  st->device = &device;
  st->live = fib != nullptr;
  // Read before the table, so it is never newer than what is uploaded.
  const u64 generation = fib != nullptr ? fib->generation() : 0;
  upload(*st, 0, fib != nullptr ? *fib->read() : *fixed);
  st->input = device.alloc(kMaxBatchItems * key_bytes);
  st->output = device.alloc(kMaxBatchItems * sizeof(u16));
  st->generation = generation;
  states.emplace(device.gpu_id(), std::move(st));
}

/// sync(): push `fib`'s current generation to every bound GPU that lacks
/// it — upload into the standby copy (allocated here on first use), then
/// flip. Masters pick up the new index at their next shade; in-flight
/// kernels keep reading the old copy. Returns the devices refreshed.
template <typename Copy, typename Fib, typename Upload>
int sync(GpuStates<Copy>& states, const Fib& fib, Upload upload) {
  const u64 generation = fib.generation();
  int refreshed = 0;
  for (auto& [id, st] : states) {
    if (st->generation == generation) continue;
    const int standby = 1 - st->active.load(std::memory_order_acquire);
    upload(*st, standby, *fib.read());
    st->active.store(standby, std::memory_order_release);
    st->generation = generation;
    ++refreshed;
  }
  return refreshed;
}

/// Route packet `i` to next hop `nh`, or drop it when there is no route.
inline void route_packet(iengine::PacketChunk& chunk, u32 i, route::NextHop nh) {
  if (nh == route::kNoRoute) {
    chunk.set_drop(i, iengine::DropReason::kNoRoute);
  } else {
    chunk.set_out_port(i, static_cast<i16>(nh));
  }
}

/// The post-shader: scatter each gathered packet's next hop.
inline void post_shade(core::ShaderJob& job) {
  const auto* next_hops = reinterpret_cast<const u16*>(job.gpu_output.data());
  for (u32 k = 0; k < job.gpu_items; ++k) {
    perf::charge_cpu_cycles(perf::kPostShadingCyclesPerPacket);
    route_packet(job.chunk, job.gpu_index[k], next_hops[k]);
  }
}

/// The lookup shade: each job's gpu_input holds `key_bytes`-sized keys,
/// each result is a u16 next hop. `kernel(first, count)` builds the lookup
/// launch over batch items [first, first + count). Launches run to
/// completion inside this call, so a kernel body may capture a pointer to
/// the caller's arguments — small enough for std::function's inline
/// buffer, so no launch allocates.
template <typename Copy, typename MakeKernel>
core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                         Picos submit_time, GpuState<Copy>& st, std::size_t key_bytes,
                         MakeKernel kernel) {
  gpu::GpuDevice& device = *gpu.device;
  const bool streamed = gpu.streams.size() > 1;
  const auto copy_out = [&](core::ShaderJob& job, u32 offset, gpu::StreamId stream) {
    job.gpu_output.resize(job.gpu_items * sizeof(u16));
    return device.memcpy_d2h(job.gpu_output, st.output, offset * sizeof(u16), stream,
                             submit_time);
  };
  Picos done = submit_time;
  u32 total = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    core::ShaderJob& job = *jobs[j];
    if (job.gpu_items == 0) continue;
    assert(total + job.gpu_items <= kMaxBatchItems);
    const gpu::StreamId stream = streamed ? gpu.stream_for(j) : gpu::kDefaultStream;
    const auto h2d = device.memcpy_h2d(st.input, total * key_bytes, job.gpu_input, stream,
                                       submit_time);
    if (!h2d.ok()) return {h2d.status, h2d.end};
    if (streamed) {
      // Streamed mode (Figure 10(c)): each chunk runs copy->kernel->copy
      // on its own stream so transfers overlap other chunks' kernels.
      const auto k = device.launch(kernel(total, job.gpu_items), stream, submit_time);
      if (!k.ok()) return {k.status, k.end};
      const auto d2h = copy_out(job, total, stream);
      if (!d2h.ok()) return {d2h.status, d2h.end};
      done = std::max(done, d2h.end);
    }
    total += job.gpu_items;
  }
  if (streamed || total == 0) return {gpu::GpuStatus::kOk, done};

  // Gathered mode (Figure 10(b)): all input copies above, one kernel
  // launch over the whole batch, then scatter the output copies.
  const auto k = device.launch(kernel(0, total), gpu::kDefaultStream, submit_time);
  if (!k.ok()) return {k.status, k.end};
  u32 offset = 0;
  for (core::ShaderJob* job : jobs) {
    if (job->gpu_items == 0) continue;
    const auto d2h = copy_out(*job, offset, gpu::kDefaultStream);
    if (!d2h.ok()) return {d2h.status, d2h.end};
    done = std::max(done, d2h.end);
    offset += job->gpu_items;
  }
  return {gpu::GpuStatus::kOk, done};
}

}  // namespace ps::apps::lpm
