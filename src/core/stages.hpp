// The per-chunk data path of section 5.3 as free functions: the worker
// admits and pre-shades, the master gathers and shades, the worker
// post-shades and checks before TX. Both schedulers run these same
// functions in the same order — core::Router on its worker and master
// threads, core::ModelDriver single-threaded on the model clock — so a
// model number comes from the code the threaded tests exercise.
//
// Every stage takes a nullable IntegrityChecker (null = integrity layer
// off: each check is one pointer test). Integrity work runs on the
// calling thread and charges the ambient CpuChargeScope. Stages never
// lock or sleep, and work in the job's and the verifier's reserved
// buffers; scheduling, statistics, tracing and GPU health stay with the
// scheduler.
#pragma once

#include <span>
#include <vector>

#include "core/shader.hpp"
#include "integrity/integrity.hpp"

namespace ps::core::stages {

/// Drop (kIntegrityFail) every integrity-flagged, not-yet-dropped packet
/// and count the quarantine; returns how many. Verdict writes stay with
/// the worker that owns the chunk.
u32 drop_integrity_bad(integrity::IntegrityChecker& checker, iengine::PacketChunk& chunk);

/// RX admission: huge-buffer bytes vs the NIC's wire CRC. A packet that
/// changed after DMA is dropped before any stage spends cycles on it.
void admit_rx(integrity::IntegrityChecker* checker, ShaderJob& job);

/// Inline CPU path (CPU-only mode, opportunistic offloading). Integrity
/// coverage ends with the RX check: the chunk crosses no further hand-off
/// and process_cpu rewrites headers in place, so the stamp is cleared
/// rather than retaken.
void process_inline(Shader& shader, ShaderJob& job);

/// Worker pre-shade, then re-stamp: pre_shade is a sanctioned mutation
/// point, so the new stamp certifies the bytes handed to the master.
void run_pre_shade(Shader& shader, integrity::IntegrityChecker* checker, ShaderJob& job);

/// Master gather boundary: mismatches are counted (localized) here; the
/// owning worker drops the flagged packets after post-shade.
void check_gather(integrity::IntegrityChecker* checker, std::span<ShaderJob* const> batch);

/// Shade a batch on the CPU (device failed or unhealthy): the CPU result
/// ships and the scatter side re-attributes the packets.
void shade_on_cpu(Shader& shader, std::span<ShaderJob* const> batch);

/// Sampled shadow verification of GPU-shaded batches (1 in N, every batch
/// inside an escalation window). One instance per sampling domain; its
/// state is touched only by the thread that shades.
class ShadowVerifier {
 public:
  explicit ShadowVerifier(u32 chunk_capacity = 0);

  /// Re-shade the sampled batch on the CPU and compare with the device's
  /// result — whole-output stride compare for the copy path, span-by-span
  /// against the frames for in-place results. A mismatched job ships the
  /// CPU result (repaired in place where needed) and is marked
  /// shaded_on_cpu; a mismatch opens the escalation window. Returns true
  /// when strikes within one window reach the trip threshold (the device
  /// is counted suspect); the scheduler decides what a trip does.
  bool verify_batch(Shader& shader, integrity::IntegrityChecker& checker,
                    std::span<ShaderJob* const> batch);

 private:
  u64 batch_seq_ = 0;             // successful GPU batches, for sampling
  u32 escalated_remaining_ = 0;   // batches left in the escalation window
  u32 strikes_ = 0;               // mismatched batches in this window
  std::vector<u8> scratch_;       // the device's gpu_output while re-shading
};

/// In-place scatter moved the result-apply mutation site to the device's
/// D2H, so the master re-certifies those frames after shading and shadow
/// verification; corruption past here is caught at the scatter boundary.
void restamp_in_place(integrity::IntegrityChecker* checker, std::span<ShaderJob* const> batch);

/// Worker scatter boundary. Bytes changed since the master's stamp
/// quarantine a GPU-shaded job: one CPU re-shade recomputes its results
/// (the flagged packets are still dropped in run_post_shade) and an
/// in-place device result is no longer trusted. Either way shaded_on_cpu
/// then tells the caller the job's packets were shaded on the CPU.
void check_scatter(Shader& shader, integrity::IntegrityChecker* checker, ShaderJob& job);

/// post_shade, then drop the flagged packets (after post_shade assigned
/// verdicts, which it would otherwise overwrite) and re-stamp only when
/// post_shade wrote frame bytes; byte-free post-shaders keep the stamp.
void run_post_shade(Shader& shader, integrity::IntegrityChecker* checker, ShaderJob& job);

/// Pre-TX check, the last look before the wire and the slow path:
/// anything flagged here or earlier is dropped, never sent.
void check_tx(integrity::IntegrityChecker* checker, ShaderJob& job);

}  // namespace ps::core::stages
