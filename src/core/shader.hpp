// The PacketShader application interface (section 5.1, Figure 7):
// an application is three callbacks — pre-shader, shader, post-shader —
// plus a CPU-only path used for the baseline mode and for opportunistic
// offloading (section 7).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "gpu/device.hpp"
#include "iengine/chunk.hpp"

namespace ps::core {

/// One region of a packet's frame that the device writes directly during
/// the D2H scatter (zero-copy: no bounce through gpu_output). `out_off`
/// addresses the same bytes in the *canonical* result layout shade_cpu
/// produces in gpu_output, which is what makes the in-place result
/// byte-comparable against a CPU re-shade (shadow verification) without
/// the copy the comparison is there to eliminate.
struct ScatterSpan {
  u32 packet = 0;     // chunk packet index
  u32 frame_off = 0;  // byte offset into that packet's frame
  u32 out_off = 0;    // byte offset of the same data in canonical gpu_output
  u32 len = 0;
};

/// One chunk's trip through the pipeline: the packets plus the staging
/// buffers the pre-shader fills for the GPU and the shader fills back.
struct ShaderJob {
  iengine::PacketChunk chunk;

  /// Host-side staging the pre-shader gathers for the device (e.g. the
  /// array of destination IP addresses for IPv4 forwarding, §6.2.1).
  std::vector<u8> gpu_input;
  /// Results copied back from the device for the post-shader.
  std::vector<u8> gpu_output;
  /// GPU threads this job wants (packets, or finer grain, e.g. AES blocks).
  u32 gpu_items = 0;
  /// Maps GPU-eligible item -> packet index in the chunk (slow-path and
  /// dropped packets never reach the device).
  std::vector<u32> gpu_index;

  int worker_id = 0;  // owner worker (for the scatter step)
  /// Pipeline-tracer ring slot for this chunk's span (-1 = untraced).
  i32 trace_slot = -1;
  /// Set when the master (or a backpressured worker) computed gpu_output
  /// via shade_cpu instead of the device, so stats can re-attribute the
  /// packets from the GPU column to the CPU column.
  bool shaded_on_cpu = false;

  /// In-place scatter plan (optional): filled by a pre-shader whose
  /// results land back inside the packet frames. When non-empty, shade()
  /// D2H-copies each span straight into chunk's frames instead of into
  /// gpu_output, and the master re-stamps the chunk after shading (frames
  /// are a sanctioned mutation site there, not at post_shade).
  std::vector<ScatterSpan> scatter_plan;
  /// Set by shade() only after *every* span of a successful device pass
  /// landed in the frames; post_shade then skips its copy-out. Never set
  /// on a failed attempt (partial D2H garbage is overwritten by the CPU
  /// fallback's copy path).
  bool applied_in_place = false;
  /// Set by a post-shader that wrote frame bytes (copy-path result apply,
  /// MAC rewrite, reassembly). The worker re-stamps the chunk after
  /// post_shade only when this is set — byte-free post-shaders (verdict
  /// and out_port writes only) keep the master's stamp.
  bool frames_dirty = false;

  /// Composition support (section 7 multi-functionality): a dispatching
  /// shader may split a chunk into per-protocol sub-jobs, each processed
  /// by a child shader; `parent_index` maps a sub-chunk packet back to its
  /// position in this job's chunk. `tag` is an app-defined dispatch key
  /// (e.g. the ethertype) so the dispatcher can find an existing sub-job
  /// without a per-call map.
  struct SubJob {
    std::unique_ptr<ShaderJob> job;
    class Shader* app = nullptr;
    u32 tag = 0;
    std::vector<u32> parent_index;
  };
  std::vector<SubJob> sub_jobs;
  /// Finished sub-jobs recycled by reset() with their allocations intact,
  /// so steady-state composition never re-allocates staging buffers.
  std::vector<SubJob> sub_pool;

  /// App-owned per-job scratch retained across reset() (capacity, not
  /// contents): used by the multi-protocol reassembly to stay
  /// allocation-free in steady state.
  std::unique_ptr<iengine::PacketChunk> scratch_chunk;
  std::vector<u64> scratch_u64;

  /// Staging bytes reserved per packet slot: the largest per-item gather of
  /// the bundled apps (a 16 B IPv6 destination address).
  static constexpr std::size_t kStagingBytesPerItem = 16;
  /// Sub-job slots reserved up front (>= the protocols a dispatcher splits).
  static constexpr std::size_t kReservedSubJobs = 8;

  explicit ShaderJob(u32 chunk_capacity) : chunk(chunk_capacity) {
    // Reserve every staging vector once at construction; reset() only
    // clear()s, so a pooled job never re-allocates in steady state.
    gpu_input.reserve(std::size_t{chunk_capacity} * kStagingBytesPerItem);
    gpu_output.reserve(std::size_t{chunk_capacity} * kStagingBytesPerItem);
    gpu_index.reserve(chunk_capacity);
    // Two spans per packet covers the bundled apps (IPsec: ciphertext + ICV).
    scatter_plan.reserve(std::size_t{chunk_capacity} * 2);
    sub_jobs.reserve(kReservedSubJobs);
    sub_pool.reserve(kReservedSubJobs);
  }

  /// Append a sub-job slot, reusing a pooled one (allocations intact) when
  /// available. The pooled job's chunk keeps its original capacity, so a
  /// job is always recycled within one parent (same chunk_capacity).
  SubJob& acquire_sub(u32 chunk_capacity) {
    if (!sub_pool.empty()) {
      sub_jobs.push_back(std::move(sub_pool.back()));
      sub_pool.pop_back();
    } else {
      SubJob sub;
      sub.job = std::make_unique<ShaderJob>(chunk_capacity);
      sub.parent_index.reserve(chunk_capacity);
      sub_jobs.push_back(std::move(sub));
    }
    return sub_jobs.back();
  }

  void reset() {
    chunk.clear();
    gpu_input.clear();
    gpu_output.clear();
    gpu_index.clear();
    for (auto& sub : sub_jobs) {
      if (sub.job) sub.job->reset();
      sub.app = nullptr;
      sub.tag = 0;
      sub.parent_index.clear();
      sub_pool.push_back(std::move(sub));
    }
    sub_jobs.clear();
    scratch_u64.clear();
    scatter_plan.clear();
    gpu_items = 0;
    trace_slot = -1;
    shaded_on_cpu = false;
    applied_in_place = false;
    frames_dirty = false;
  }
};

using JobPtr = std::unique_ptr<ShaderJob>;

/// Per-master GPU context: the device plus the streams the master may use
/// for concurrent copy and execution (section 5.4). With a single stream,
/// copies and kernels serialize; with several, consecutive chunks overlap.
struct GpuContext {
  gpu::GpuDevice* device = nullptr;
  std::vector<gpu::StreamId> streams;  // at least {kDefaultStream}

  gpu::StreamId stream_for(std::size_t i) const {
    return streams[i % streams.size()];
  }
};

/// Result of one shade() batch. `done` is the model-clock completion time
/// of the batch; on failure it reflects time burned before the fault and
/// the batch's gpu_output must be treated as garbage.
struct ShadeOutcome {
  gpu::GpuStatus status = gpu::GpuStatus::kOk;
  Picos done = 0;
  bool ok() const { return status == gpu::GpuStatus::kOk; }
};

/// Applications implement this interface. One instance is shared by all
/// threads: pre/post_shade run concurrently on worker threads, shade on
/// master threads, so implementations keep per-packet state inside the job
/// and treat tables as read-only (the paper assumes static tables, §6).
class Shader {
 public:
  virtual ~Shader() = default;

  virtual const char* name() const = 0;

  /// Called once per GPU before the data path starts: upload tables etc.
  virtual void bind_gpu(gpu::GpuDevice& device) { (void)device; }

  /// Worker-side: classify packets (drop/slow-path), rewrite headers, and
  /// gather the device input into job.gpu_input / job.gpu_items.
  virtual void pre_shade(ShaderJob& job) = 0;

  /// Master-side: process a gathered batch of jobs on the GPU. The default
  /// sequence per job is h2d copy -> kernel -> d2h copy on the job's
  /// stream. `submit_time` is the model-clock instant the batch starts.
  /// Returns the outcome; on any device-op failure the shader stops the
  /// batch and reports the failing status so the master can retry or fall
  /// back. A failed batch may be re-shaded: inputs are left untouched.
  virtual ShadeOutcome shade(GpuContext& gpu, std::span<ShaderJob* const> jobs,
                             Picos submit_time = 0) = 0;

  /// CPU re-shade of one pre-shaded job: compute job.gpu_output from
  /// job.gpu_input exactly as the kernel would, without touching packet
  /// headers (pre_shade already rewrote them — re-running process_cpu here
  /// would, e.g., decrement TTL twice). Used when the master's GPU is
  /// unhealthy and for worker-side backpressure fallback; post_shade then
  /// applies the results as if the GPU had produced them.
  virtual void shade_cpu(ShaderJob& job) = 0;

  /// Worker-side: apply gpu_output to the chunk (set verdicts/out ports).
  virtual void post_shade(ShaderJob& job) = 0;

  /// The CPU-only implementation of the whole operation, used by the
  /// CPU-only mode (Figure 11 baselines) and opportunistic offloading.
  virtual void process_cpu(iengine::PacketChunk& chunk) = 0;
};

}  // namespace ps::core
