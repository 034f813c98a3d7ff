#include "apps/ipsec_gateway.hpp"

#include <cassert>
#include <cstring>

#include "common/cacheline.hpp"
#include "perf/calibration.hpp"
#include "perf/ledger.hpp"

namespace ps::apps {

namespace {

constexpr u32 kAuthPrefix = 16;  // ESP header (8) + IV (8) precede the ciphertext

u32 sha1_blocks_for(u32 auth_len) {
  // HMAC = inner hash over (64 B ipad + message, padded) + outer hash over
  // (64 B opad + 20 B digest) = 2 blocks.
  return (64 + auth_len + 9 + 63) / 64 + 2;
}

u32 aes_blocks_for(u32 cipher_len) { return (cipher_len + 15) / 16; }

double byte_copy_cycles(u64 bytes) {
  return static_cast<double>(cache_lines(bytes)) * perf::kCopyCyclesPerCacheLine;
}

}  // namespace

IpsecGatewayApp::IpsecGatewayApp(const crypto::SecurityAssociation& sa) : sa_(sa) {}

void IpsecGatewayApp::bind_gpu(gpu::GpuDevice& device) {
  if (gpu_state_.contains(device.gpu_id())) return;
  GpuState st;
  st.descs = device.alloc(kMaxBatchPackets * sizeof(PacketDesc));
  st.blocks = device.alloc(kMaxBatchBlocks * sizeof(BlockRef));
  st.blob = device.alloc(static_cast<std::size_t>(kMaxBatchBlocks) * 16 +
                         kMaxBatchPackets * kAuthPrefix);
  st.icv = device.alloc(kMaxBatchPackets * crypto::kHmacSha1_96Size);
  st.blob_segs.reserve(iengine::PacketChunk::kDefaultMaxPackets);
  st.icv_segs.reserve(iengine::PacketChunk::kDefaultMaxPackets);

  // Key material: expanded AES schedule + CTR nonce + HMAC key, uploaded
  // once per SA (keys are static, section 6).
  std::vector<u8> keys;
  const auto schedule = sa_.cipher.round_keys();
  keys.insert(keys.end(), schedule.begin(), schedule.end());
  keys.insert(keys.end(), sa_.nonce.begin(), sa_.nonce.end());
  keys.insert(keys.end(), sa_.auth_key.begin(), sa_.auth_key.end());
  st.keys = device.alloc(keys.size());
  device.memcpy_h2d(st.keys, 0, keys);

  gpu_state_.emplace(device.gpu_id(), std::move(st));
}

void IpsecGatewayApp::pre_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  iengine::PacketChunk scratch(chunk.max_packets());
  scratch.in_port = chunk.in_port;
  scratch.in_queue = chunk.in_queue;

  std::vector<PacketDesc> descs;
  std::vector<BlockRef> blocks;
  std::vector<u8> blob;
  u32 n_blocks = 0;

  for (u32 i = 0; i < chunk.count(); ++i) {
    perf::charge_cpu_cycles(perf::kCpuIpsecPerPacketCycles + perf::kPreShadingCyclesPerPacket);
    const auto frame = chunk.packet(i);
    if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) {
      // Condemned upstream (e.g. NIC-flagged corruption): carry the packet
      // and its reason through so the drop stays accounted — never encrypt.
      const u32 slot = scratch.count();
      scratch.append(frame, chunk.rss_hash(i));
      scratch.set_drop(slot, chunk.drop_reason(i));
      continue;
    }
    const u32 seq = next_seq_.fetch_add(1, std::memory_order_relaxed);

    crypto::EspLayout layout;
    auto out = crypto::esp_build_unencrypted(sa_, frame, seq, &layout);
    const u32 slot = scratch.count();
    if (out.empty()) {
      scratch.append(frame, chunk.rss_hash(i));
      scratch.set_verdict(slot, iengine::PacketVerdict::kSlowPath);
      continue;
    }
    scratch.append(out, chunk.rss_hash(i));
    scratch.set_out_port(slot, static_cast<i16>(chunk.in_port ^ 1));

    PacketDesc desc;
    desc.blob_off = static_cast<u32>(blob.size());
    desc.cipher_len = layout.cipher_len;
    desc.first_block = n_blocks;
    // Blob region: [ESP header | IV | plaintext payload] — the HMAC
    // coverage, with AES applying to the tail past the 16 B prefix.
    blob.insert(blob.end(), out.begin() + layout.esp_offset,
                out.begin() + layout.icv_offset);
    perf::charge_cpu_cycles(byte_copy_cycles(layout.icv_offset - layout.esp_offset));

    const u32 nb = aes_blocks_for(layout.cipher_len);
    for (u32 b = 0; b < nb; ++b) {
      blocks.push_back({static_cast<u32>(descs.size()), b});
    }
    n_blocks += nb;
    descs.push_back(desc);
    job.gpu_index.push_back(slot);
  }

  chunk = std::move(scratch);

  // In-place scatter plan: shade() D2H-writes ciphertext and ICV straight
  // into each encapsulated frame instead of bouncing through gpu_output.
  // out_off addresses the canonical [ciphertext blob | ICV array] layout
  // shade_cpu produces, which keeps the in-place result byte-comparable
  // to a CPU re-shade. Spans are appended per packet in gpu_index order
  // (shadow verification relies on that ordering to count bad packets).
  {
    const u32 blob_len = static_cast<u32>(blob.size());
    constexpr u32 esp_offset = sizeof(net::EthernetHeader) + sizeof(net::Ipv4Header);
    for (u32 k = 0; k < descs.size(); ++k) {
      const PacketDesc& d = descs[k];
      const u32 slot = job.gpu_index[k];
      job.scatter_plan.push_back(
          {slot, esp_offset + kAuthPrefix, d.blob_off + kAuthPrefix, d.cipher_len});
      job.scatter_plan.push_back({slot, esp_offset + kAuthPrefix + d.cipher_len,
                                  blob_len + k * static_cast<u32>(crypto::kHmacSha1_96Size),
                                  static_cast<u32>(crypto::kHmacSha1_96Size)});
    }
  }

  // Serialize [n_packets | n_blocks | descriptors | block map | blob] into
  // gpu_input: size it once, then copy each region to its offset.
  const u32 n_packets = static_cast<u32>(descs.size());
  const std::size_t descs_bytes = descs.size() * sizeof(PacketDesc);
  const std::size_t blocks_bytes = blocks.size() * sizeof(BlockRef);
  job.gpu_input.resize(2 * sizeof(u32) + descs_bytes + blocks_bytes + blob.size());
  u8* dst = job.gpu_input.data();
  std::memcpy(dst, &n_packets, sizeof(u32));
  std::memcpy(dst + sizeof(u32), &n_blocks, sizeof(u32));
  dst += 2 * sizeof(u32);
  if (descs_bytes != 0) std::memcpy(dst, descs.data(), descs_bytes);
  dst += descs_bytes;
  if (blocks_bytes != 0) std::memcpy(dst, blocks.data(), blocks_bytes);
  dst += blocks_bytes;
  if (!blob.empty()) std::memcpy(dst, blob.data(), blob.size());
  job.gpu_items = n_blocks;
}

gpu::GpuStatus IpsecGatewayApp::shade_one_job(core::GpuContext& gpu, core::ShaderJob& job,
                                              gpu::StreamId stream, Picos submit_time,
                                              Picos& done) {
  if (job.gpu_input.size() < 8) return gpu::GpuStatus::kOk;
  auto& st = gpu_state_.at(gpu.device->gpu_id());

  u32 n_packets = 0;
  u32 n_blocks = 0;
  std::memcpy(&n_packets, job.gpu_input.data(), 4);
  std::memcpy(&n_blocks, job.gpu_input.data() + 4, 4);
  if (n_packets == 0) return gpu::GpuStatus::kOk;
  assert(n_packets <= kMaxBatchPackets && n_blocks <= kMaxBatchBlocks);

  const std::size_t descs_off = 8;
  const std::size_t blocks_off = descs_off + n_packets * sizeof(PacketDesc);
  const std::size_t blob_off = blocks_off + n_blocks * sizeof(BlockRef);
  const std::size_t blob_len = job.gpu_input.size() - blob_off;

  // Gathered copies of the three regions (one logical transfer each).
  // Re-uploading the plaintext blob also makes a retried job idempotent:
  // the in-place AES below always starts from fresh plaintext.
  const auto c1 = gpu.device->memcpy_h2d(
      st.descs, 0, {job.gpu_input.data() + descs_off, blocks_off - descs_off}, stream,
      submit_time);
  if (!c1.ok()) return c1.status;
  const auto c2 = gpu.device->memcpy_h2d(
      st.blocks, 0, {job.gpu_input.data() + blocks_off, blob_off - blocks_off}, stream,
      submit_time);
  if (!c2.ok()) return c2.status;
  const auto c3 = gpu.device->memcpy_h2d(st.blob, 0,
                                         {job.gpu_input.data() + blob_off, blob_len}, stream,
                                         submit_time);
  if (!c3.ok()) return c3.status;

  const auto* descs = st.descs.as<const PacketDesc>();
  const auto* blocks = st.blocks.as<const BlockRef>();
  u8* blob = st.blob.data();
  u8* icv = st.icv.data();
  const u8* schedule = st.keys.data();
  const u8* nonce = st.keys.data() + 176;
  const u8* auth_key = st.keys.data() + 180;

  // Kernel 1 — AES-128-CTR, one thread per 16 B block (finest grain).
  gpu::KernelLaunch aes{
      .name = "ipsec_aes_ctr",
      .threads = n_blocks,
      .body =
          [=](gpu::ThreadCtx& ctx) {
            const BlockRef ref = blocks[ctx.thread_id()];
            const PacketDesc d = descs[ref.desc];
            const u8* iv = blob + d.blob_off + 8;
            u8* data = blob + d.blob_off + kAuthPrefix + ref.block * 16;
            const u32 remain = d.cipher_len - ref.block * 16;
            crypto::aes_ctr_crypt_block(schedule, nonce, iv, ref.block, data,
                                        remain < 16 ? remain : 16);
          },
      .cost = {.instructions = perf::kGpuAesInstrPerBlock, .mem_accesses = 1.0},
  };
  const auto aes_result = gpu.device->launch(aes, stream, submit_time);
  if (!aes_result.ok()) return aes_result.status;

  // Kernel 2 — HMAC-SHA1 over [ESP hdr | IV | ciphertext], one thread per
  // packet (SHA-1's block chain is sequential).
  double total_sha_blocks = 0;
  u64 total_auth_bytes = 0;
  {
    const auto* host_descs =
        reinterpret_cast<const PacketDesc*>(job.gpu_input.data() + descs_off);
    for (u32 p = 0; p < n_packets; ++p) {
      total_sha_blocks += sha1_blocks_for(kAuthPrefix + host_descs[p].cipher_len);
      total_auth_bytes += kAuthPrefix + host_descs[p].cipher_len;
    }
  }
  gpu::KernelLaunch hmac{
      .name = "ipsec_hmac_sha1",
      .threads = n_packets,
      .body =
          [=](gpu::ThreadCtx& ctx) {
            const PacketDesc d = descs[ctx.thread_id()];
            const auto tag = crypto::hmac_sha1_96(
                {auth_key, crypto::kSha1DigestSize},
                {blob + d.blob_off, kAuthPrefix + d.cipher_len});
            std::memcpy(icv + ctx.thread_id() * crypto::kHmacSha1_96Size, tag.data(),
                        tag.size());
          },
      .cost = {.instructions =
                   total_sha_blocks / n_packets * perf::kGpuSha1InstrPerBlock,
               .mem_accesses = static_cast<double>(total_auth_bytes) / n_packets / 32.0},
  };
  const auto hmac_result = gpu.device->launch(hmac, stream, submit_time);
  if (!hmac_result.ok()) return hmac_result.status;

  // Results back. With a scatter plan the DMA descriptor lists land
  // ciphertext and ICV directly at each packet's frame offsets (zero-copy:
  // post_shade's per-packet bounce copies disappear); the op count is
  // unchanged — still one D2H per device source buffer.
  if (!job.scatter_plan.empty()) {
    auto& blob_segs = st.blob_segs;
    auto& icv_segs = st.icv_segs;
    blob_segs.clear();
    icv_segs.clear();
    for (const auto& span : job.scatter_plan) {
      auto frame = job.chunk.packet(span.packet);
      assert(span.frame_off + span.len <= frame.size());
      std::span<u8> dst{frame.data() + span.frame_off, span.len};
      // Canonical-layout offsets map onto the device buffers directly:
      // [0, blob_len) is st.blob, the ICV array tail is st.icv.
      if (span.out_off < blob_len) {
        blob_segs.push_back({dst, span.out_off});
      } else {
        icv_segs.push_back({dst, span.out_off - blob_len});
      }
    }
    const auto t1 = gpu.device->memcpy_d2h_scatter(blob_segs, st.blob, stream, submit_time);
    if (!t1.ok()) return t1.status;
    const auto t2 = gpu.device->memcpy_d2h_scatter(icv_segs, st.icv, stream, submit_time);
    if (!t2.ok()) return t2.status;
    done = std::max({done, t1.end, t2.end});
    // Every span landed: only now may post_shade skip its copy-out. A
    // failed attempt above leaves this false, so the CPU fallback's copy
    // path overwrites any partially-scattered garbage.
    job.applied_in_place = true;
    return gpu::GpuStatus::kOk;
  }

  job.gpu_output.resize(blob_len + n_packets * crypto::kHmacSha1_96Size);
  auto t1 = gpu.device->memcpy_d2h({job.gpu_output.data(), blob_len}, st.blob, 0, stream,
                                   submit_time);
  if (!t1.ok()) return t1.status;
  auto t2 = gpu.device->memcpy_d2h(
      {job.gpu_output.data() + blob_len, n_packets * crypto::kHmacSha1_96Size}, st.icv, 0,
      stream, submit_time);
  if (!t2.ok()) return t2.status;
  done = std::max({done, t1.end, t2.end});
  return gpu::GpuStatus::kOk;
}

core::ShadeOutcome IpsecGatewayApp::shade(core::GpuContext& gpu,
                                          std::span<core::ShaderJob* const> jobs,
                                          Picos submit_time) {
  Picos done = submit_time;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto st = shade_one_job(gpu, *jobs[j], gpu.stream_for(j), submit_time, done);
    if (st != gpu::GpuStatus::kOk) return {st, done};
  }
  return {gpu::GpuStatus::kOk, done};
}

void IpsecGatewayApp::shade_cpu(core::ShaderJob& job) {
  if (job.gpu_input.size() < 8) {
    job.gpu_output.clear();
    return;
  }
  u32 n_packets = 0;
  u32 n_blocks = 0;
  std::memcpy(&n_packets, job.gpu_input.data(), 4);
  std::memcpy(&n_blocks, job.gpu_input.data() + 4, 4);
  const std::size_t descs_off = 8;
  const std::size_t blocks_off = descs_off + n_packets * sizeof(PacketDesc);
  const std::size_t blob_off = blocks_off + n_blocks * sizeof(BlockRef);
  const std::size_t blob_len = job.gpu_input.size() - blob_off;
  const auto* descs = reinterpret_cast<const PacketDesc*>(job.gpu_input.data() + descs_off);

  // Same output layout as the GPU path: [ciphertext blob | ICV array].
  job.gpu_output.resize(blob_len + n_packets * crypto::kHmacSha1_96Size);
  u8* blob = job.gpu_output.data();
  std::memcpy(blob, job.gpu_input.data() + blob_off, blob_len);
  u8* icv = job.gpu_output.data() + blob_len;

  const auto schedule = sa_.cipher.round_keys();
  for (u32 p = 0; p < n_packets; ++p) {
    const PacketDesc& d = descs[p];
    const u8* iv = blob + d.blob_off + 8;
    const u32 nb = aes_blocks_for(d.cipher_len);
    for (u32 b = 0; b < nb; ++b) {
      u8* data = blob + d.blob_off + kAuthPrefix + b * 16;
      const u32 remain = d.cipher_len - b * 16;
      crypto::aes_ctr_crypt_block(schedule.data(), sa_.nonce.data(), iv, b, data,
                                  remain < 16 ? remain : 16);
    }
    const auto tag =
        crypto::hmac_sha1_96({sa_.auth_key.data(), crypto::kSha1DigestSize},
                             {blob + d.blob_off, kAuthPrefix + d.cipher_len});
    std::memcpy(icv + p * crypto::kHmacSha1_96Size, tag.data(), tag.size());
    perf::charge_cpu_cycles(nb * perf::kCpuAesCyclesPerBlock +
                            sha1_blocks_for(kAuthPrefix + d.cipher_len) *
                                perf::kCpuSha1CyclesPerBlock);
  }
}

void IpsecGatewayApp::post_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  if (job.gpu_input.size() < 8) return;
  u32 n_packets = 0;
  std::memcpy(&n_packets, job.gpu_input.data(), 4);
  u32 n_blocks = 0;
  std::memcpy(&n_blocks, job.gpu_input.data() + 4, 4);
  const std::size_t descs_off = 8;
  const auto* descs = reinterpret_cast<const PacketDesc*>(job.gpu_input.data() + descs_off);
  const std::size_t blob_off =
      descs_off + n_packets * sizeof(PacketDesc) + n_blocks * sizeof(BlockRef);
  const std::size_t blob_len = job.gpu_input.size() - blob_off;

  if (job.applied_in_place) {
    // Zero-copy scatter already landed ciphertext + ICV in the frames (and
    // the master re-stamped the mutated chunk); only the per-packet
    // post-shading bookkeeping remains.
    for (u32 k = 0; k < n_packets; ++k) {
      perf::charge_cpu_cycles(perf::kPostShadingCyclesPerPacket);
    }
    return;
  }

  const u8* out_blob = job.gpu_output.data();
  const u8* out_icv = job.gpu_output.data() + blob_len;

  for (u32 k = 0; k < n_packets; ++k) {
    perf::charge_cpu_cycles(perf::kPostShadingCyclesPerPacket);
    const u32 i = job.gpu_index[k];
    auto frame = chunk.packet(i);
    const PacketDesc& d = descs[k];
    const u32 esp_offset = sizeof(net::EthernetHeader) + sizeof(net::Ipv4Header);

    // Write ciphertext (skip the ESP header + IV prefix, already in frame)
    // and the ICV into the encapsulated frame.
    std::memcpy(frame.data() + esp_offset + kAuthPrefix,
                out_blob + d.blob_off + kAuthPrefix, d.cipher_len);
    std::memcpy(frame.data() + esp_offset + kAuthPrefix + d.cipher_len,
                out_icv + k * crypto::kHmacSha1_96Size, crypto::kHmacSha1_96Size);
    perf::charge_cpu_cycles(byte_copy_cycles(d.cipher_len + crypto::kHmacSha1_96Size));
  }
  // The copy path rewrote frame bytes after the master's stamp; the worker
  // re-stamps the chunk before the kTx verification.
  if (n_packets > 0) job.frames_dirty = true;
}

void IpsecGatewayApp::process_cpu(iengine::PacketChunk& chunk) {
  iengine::PacketChunk scratch(chunk.max_packets());
  scratch.in_port = chunk.in_port;
  scratch.in_queue = chunk.in_queue;

  for (u32 i = 0; i < chunk.count(); ++i) {
    const auto frame = chunk.packet(i);
    if (chunk.verdict(i) == iengine::PacketVerdict::kDrop) {
      const u32 slot = scratch.count();
      scratch.append(frame, chunk.rss_hash(i));
      scratch.set_drop(slot, chunk.drop_reason(i));
      continue;
    }
    const u32 seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    auto out = crypto::esp_encapsulate(sa_, frame, seq);

    const u32 slot = scratch.count();
    if (out.empty()) {
      scratch.append(frame, chunk.rss_hash(i));
      scratch.set_verdict(slot, iengine::PacketVerdict::kSlowPath);
      perf::charge_cpu_cycles(perf::kCpuIpsecPerPacketCycles);
      continue;
    }
    scratch.append(out, chunk.rss_hash(i));
    scratch.set_out_port(slot, static_cast<i16>(chunk.in_port ^ 1));

    const u32 cipher_len =
        crypto::esp_cipher_bytes(static_cast<u32>(frame.size()) - sizeof(net::EthernetHeader));
    perf::charge_cpu_cycles(
        perf::kCpuIpsecPerPacketCycles +
        aes_blocks_for(cipher_len) * perf::kCpuAesCyclesPerBlock +
        sha1_blocks_for(kAuthPrefix + cipher_len) * perf::kCpuSha1CyclesPerBlock);
  }
  chunk = std::move(scratch);
}

}  // namespace ps::apps
