#include "core/stages.hpp"

#include <algorithm>
#include <cstring>

namespace ps::core::stages {

using integrity::IntegrityChecker;
using integrity::Stage;

u32 drop_integrity_bad(IntegrityChecker& checker, iengine::PacketChunk& chunk) {
  u32 dropped = 0;
  for (u32 i = 0; i < chunk.count(); ++i) {
    if (!chunk.integrity_bad(i)) continue;
    if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) continue;
    chunk.set_drop(i, iengine::DropReason::kIntegrityFail);
    ++dropped;
  }
  if (dropped != 0) checker.count_quarantined(dropped);
  return dropped;
}

void admit_rx(IntegrityChecker* checker, ShaderJob& job) {
  if (checker != nullptr && checker->verify_chunk(job.chunk, Stage::kRx) != 0) {
    drop_integrity_bad(*checker, job.chunk);
  }
}

void process_inline(Shader& shader, ShaderJob& job) {
  job.chunk.set_stamped(false);
  shader.process_cpu(job.chunk);
}

void run_pre_shade(Shader& shader, IntegrityChecker* checker, ShaderJob& job) {
  shader.pre_shade(job);
  if (checker != nullptr) checker->stamp_chunk(job.chunk);
}

void check_gather(IntegrityChecker* checker, std::span<ShaderJob* const> batch) {
  if (checker == nullptr) return;
  for (ShaderJob* job : batch) checker->verify_chunk(job->chunk, Stage::kGather);
}

void shade_on_cpu(Shader& shader, std::span<ShaderJob* const> batch) {
  for (ShaderJob* job : batch) {
    shader.shade_cpu(*job);
    job->shaded_on_cpu = true;
  }
}

ShadowVerifier::ShadowVerifier(u32 chunk_capacity) {
  scratch_.reserve(std::size_t{chunk_capacity} * ShaderJob::kStagingBytesPerItem);
}

bool ShadowVerifier::verify_batch(Shader& shader, IntegrityChecker& checker,
                                  std::span<ShaderJob* const> batch) {
  const u64 seq = batch_seq_++;
  const bool escalated = escalated_remaining_ > 0;
  if (escalated && --escalated_remaining_ == 0) {
    strikes_ = 0;  // the window expired without tripping: strikes age out
  }
  if (!checker.should_shadow_verify(seq, escalated)) return false;

  bool any_mismatch = false;
  for (ShaderJob* job : batch) {
    u64 bad_items = 0;
    if (job->applied_in_place) {
      // The device's results live in the frames, not gpu_output. Recompute
      // the canonical layout from the untouched gathered input and compare
      // span by span (out_off addresses the bytes the frame region holds);
      // a mismatched span is repaired from the CPU truth, so the corrupt
      // bytes never reach the wire.
      checker.count_shadow_batch();
      shader.shade_cpu(*job);
      i64 last_bad_packet = -1;  // the plan is packet-ordered
      for (const auto& span : job->scatter_plan) {
        u8* frame_bytes = job->chunk.packet(span.packet).data() + span.frame_off;
        const u8* truth = job->gpu_output.data() + span.out_off;
        if (std::memcmp(frame_bytes, truth, span.len) == 0) continue;
        std::memcpy(frame_bytes, truth, span.len);
        if (static_cast<i64>(span.packet) != last_bad_packet) {
          ++bad_items;
          last_bad_packet = static_cast<i64>(span.packet);
        }
      }
      if (bad_items == 0) continue;
    } else {
      if (job->gpu_output.empty()) continue;  // composed jobs verify via sub-chunk byte checks
      // Stash the device's results and recompute them on the CPU from the
      // same inputs (differential tests pin the two byte-identical). After
      // a mismatch the job already carries the CPU ground truth.
      checker.count_shadow_batch();
      scratch_.assign(job->gpu_output.begin(), job->gpu_output.end());
      shader.shade_cpu(*job);
      if (scratch_ == job->gpu_output) continue;
      const std::size_t items = std::max<u32>(job->gpu_items, 1);
      const std::size_t stride = job->gpu_output.size() / items;
      if (stride == 0 || job->gpu_output.size() % items != 0 ||
          scratch_.size() != job->gpu_output.size()) {
        bad_items = 1;  // no per-item framing: localize to "this batch"
      } else {
        for (std::size_t i = 0; i < items; ++i) {
          if (std::memcmp(scratch_.data() + i * stride, job->gpu_output.data() + i * stride,
                          stride) != 0) {
            ++bad_items;
          }
        }
      }
    }
    any_mismatch = true;
    checker.count_shadow_mismatch(bad_items);
    checker.count_reshaded_batch();
    job->shaded_on_cpu = true;
  }
  if (!any_mismatch) return false;

  // Distrust the device more: verify every batch for a window, and count
  // strikes within it toward a trip.
  escalated_remaining_ = checker.config().shadow_escalate_batches;
  if (++strikes_ < checker.config().shadow_trip_threshold) return false;
  strikes_ = 0;
  checker.count_device_suspect();
  return true;
}

void restamp_in_place(IntegrityChecker* checker, std::span<ShaderJob* const> batch) {
  if (checker == nullptr) return;
  for (ShaderJob* job : batch) {
    if (!job->scatter_plan.empty() && job->chunk.stamped()) checker->stamp_chunk(job->chunk);
  }
}

void check_scatter(Shader& shader, IntegrityChecker* checker, ShaderJob& job) {
  if (checker == nullptr) return;
  if (checker->verify_chunk(job.chunk, Stage::kScatter) == 0 || job.shaded_on_cpu) return;
  shader.shade_cpu(job);
  checker->count_reshaded_batch();
  job.shaded_on_cpu = true;
  job.applied_in_place = false;
}

void run_post_shade(Shader& shader, IntegrityChecker* checker, ShaderJob& job) {
  shader.post_shade(job);
  if (checker == nullptr || !job.chunk.stamped()) return;
  drop_integrity_bad(*checker, job.chunk);
  if (job.frames_dirty) checker->stamp_chunk(job.chunk);
}

void check_tx(IntegrityChecker* checker, ShaderJob& job) {
  if (checker == nullptr || !job.chunk.stamped()) return;
  checker->verify_chunk(job.chunk, Stage::kTx);
  drop_integrity_bad(*checker, job.chunk);
}

}  // namespace ps::core::stages
