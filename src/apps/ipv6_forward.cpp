#include "apps/ipv6_forward.hpp"

#include <algorithm>

#include "apps/classify.hpp"

namespace ps::apps {

namespace {

bool classify_and_rewrite(iengine::PacketChunk& chunk, u32 i) {
  net::PacketView view;
  if (classify_l3(chunk, i, net::EtherType::kIpv6, view) != FastPathClass::kEligible) {
    return false;
  }
  view.ipv6().hop_limit -= 1;  // no checksum in the IPv6 header
  return true;
}

/// Batched flat-table lookup of `n` interleaved (hi, lo) keys, charged
/// per hash probe.
void lookup_batch(const route::Ipv6Table& table, const u64* keys, route::NextHop* out,
                  std::size_t n) {
  u64 probes = 0;
  table.flat().lookup_batch(keys, out, n, &probes);
  perf::charge_cpu_cycles(static_cast<double>(probes) *
                          perf::kCpuIpv6LookupBatchCyclesPerProbe);
}

}  // namespace

Ipv6ForwardApp::Ipv6ForwardApp(const route::Ipv6Table& table) : table_(&table) {}

Ipv6ForwardApp::Ipv6ForwardApp(route::Ipv6Fib& fib) : fib_(&fib) {}

route::Ipv6Fib::ReadGuard Ipv6ForwardApp::read() const {
  // A fixed table never changes, so it needs no epoch pin.
  return fib_ != nullptr ? fib_->read() : route::Ipv6Fib::ReadGuard(epoch::Guard{}, table_);
}

void Ipv6ForwardApp::upload(lpm::GpuState<TableCopy>& st, int slot,
                            const route::Ipv6Table& table) {
  auto& copy = st.copies[slot];
  const auto& flat = table.flat();
  const auto slots = flat.slots();
  lpm::reserve(st, copy.slots,
               std::max<std::size_t>(slots.size_bytes(), sizeof(route::Ipv6FlatTable::Slot)),
               ~std::size_t{0});
  lpm::copy_in(*st.device, copy.slots, slots);
  const auto offsets = flat.level_offsets();
  lpm::reserve(st, copy.offsets, offsets.size_bytes(), offsets.size_bytes());
  lpm::copy_in(*st.device, copy.offsets, offsets);
  const auto masks = flat.level_masks();
  lpm::reserve(st, copy.masks, masks.size_bytes(), masks.size_bytes());
  lpm::copy_in(*st.device, copy.masks, masks);
  copy.default_nh = flat.default_route();
}

void Ipv6ForwardApp::bind_gpu(gpu::GpuDevice& device) {
  lpm::bind(gpu_state_, device, 16, fib_, table_, &Ipv6ForwardApp::upload);
}

int Ipv6ForwardApp::sync() {
  return fib_ != nullptr ? lpm::sync(gpu_state_, *fib_, &Ipv6ForwardApp::upload) : 0;
}

void Ipv6ForwardApp::pre_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  for (u32 i = 0; i < chunk.count(); ++i) {
    perf::charge_cpu_cycles(perf::kPreShadingCyclesPerPacket);
    if (!classify_and_rewrite(chunk, i)) continue;
    // Gather hi/lo words in host order, the layout the kernel consumes.
    const u8* dst = chunk_view_dst6(chunk, i);
    const u64 words[2] = {load_be64(dst), load_be64(dst + 8)};
    const auto* bytes = reinterpret_cast<const u8*>(words);
    job.gpu_input.insert(job.gpu_input.end(), bytes, bytes + sizeof(words));
    job.gpu_index.push_back(i);
  }
  job.gpu_items = static_cast<u32>(job.gpu_index.size());
}

core::ShadeOutcome Ipv6ForwardApp::shade(core::GpuContext& gpu,
                                         std::span<core::ShaderJob* const> jobs,
                                         Picos submit_time) {
  auto& st = *gpu_state_.at(gpu.device->gpu_id());
  const auto& copy = st.copies[st.active.load(std::memory_order_acquire)];
  const struct {
    const route::Ipv6FlatTable::Slot* slots;
    const u32* offsets;
    const u32* masks;
    const u64* in;
    u16* out;
    route::NextHop default_nh;
  } args{copy.slots.as<const route::Ipv6FlatTable::Slot>(), copy.offsets.as<const u32>(),
         copy.masks.as<const u32>(), st.input.as<const u64>(), st.output.as<u16>(),
         copy.default_nh};
  return lpm::shade(gpu, jobs, submit_time, st, 16, [&args](u32 first, u32 count) {
    return gpu::KernelLaunch{
        .name = "ipv6_lookup",
        .threads = count,
        .body =
            [a = &args, first](gpu::ThreadCtx& ctx) {
              const std::size_t k = first + ctx.thread_id();
              a->out[k] = route::Ipv6FlatTable::lookup_in_arrays(
                  a->slots, a->offsets, a->masks, a->in[k * 2], a->in[k * 2 + 1], a->default_nh);
            },
        // Seven dependent hash probes per lookup, each a random
        // device-memory access (section 6.2.2); a probe touches a 24 B slot
        // that straddles GDDR5 segments, so ~1.5 segments of bandwidth per
        // probe.
        .cost = {.instructions = 7 * perf::kGpuIpv6LookupInstrPerProbe,
                 .mem_accesses = 7.0,
                 .bytes_per_access = 48},
    };
  });
}

void Ipv6ForwardApp::shade_cpu(core::ShaderJob& job) {
  // The gathered input is already the interleaved (hi, lo) layout the
  // batch API consumes; one interleaved walk resolves the whole job.
  job.gpu_output.resize(job.gpu_items * sizeof(u16));
  lookup_batch(*read(), reinterpret_cast<const u64*>(job.gpu_input.data()),
               reinterpret_cast<u16*>(job.gpu_output.data()), job.gpu_items);
}

void Ipv6ForwardApp::post_shade(core::ShaderJob& job) { lpm::post_shade(job); }

void Ipv6ForwardApp::process_cpu(iengine::PacketChunk& chunk) {
  // Slowpath / CPU-only mode: gather eligible destinations (interleaved
  // hi/lo words) into a stack block, resolve with one batched walk, scatter
  // the verdicts. One epoch pin per chunk.
  const auto table = read();
  u64 keys[2 * lpm::kCpuBatchBlock] = {};
  u32 idx[lpm::kCpuBatchBlock] = {};
  route::NextHop nhs[lpm::kCpuBatchBlock] = {};
  u32 m = 0;
  const auto flush = [&] {
    lookup_batch(*table, keys, nhs, m);
    for (u32 k = 0; k < m; ++k) lpm::route_packet(chunk, idx[k], nhs[k]);
    m = 0;
  };
  for (u32 i = 0; i < chunk.count(); ++i) {
    if (!classify_and_rewrite(chunk, i)) {
      perf::charge_cpu_cycles(perf::kCpuIpv6LookupBatchCyclesPerProbe);
      continue;
    }
    const u8* dst = chunk_view_dst6(chunk, i);
    keys[2 * m] = load_be64(dst);
    keys[2 * m + 1] = load_be64(dst + 8);
    idx[m] = i;
    if (++m == lpm::kCpuBatchBlock) flush();
  }
  flush();
}

}  // namespace ps::apps
