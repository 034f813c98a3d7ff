#include "apps/ipv4_forward.hpp"

#include <algorithm>
#include <cassert>

#include "apps/classify.hpp"
#include "net/checksum.hpp"

namespace ps::apps {

namespace {

bool classify_and_rewrite(iengine::PacketChunk& chunk, u32 i) {
  net::PacketView view;
  if (classify_l3(chunk, i, net::EtherType::kIpv4, view) != FastPathClass::kEligible) {
    return false;
  }
  net::ipv4_decrement_ttl(view.ipv4());
  return true;
}

}  // namespace

Ipv4ForwardApp::Ipv4ForwardApp(const route::Ipv4Table& table) : table_(&table) {}

Ipv4ForwardApp::Ipv4ForwardApp(route::Ipv4Fib& fib) : fib_(&fib) {}

route::Ipv4Fib::ReadGuard Ipv4ForwardApp::read() const {
  // A fixed table never changes, so it needs no epoch pin.
  return fib_ != nullptr ? fib_->read() : route::Ipv4Fib::ReadGuard(epoch::Guard{}, table_);
}

void Ipv4ForwardApp::upload(lpm::GpuState<TableCopy>& st, int slot,
                            const route::Ipv4Table& table) {
  auto& copy = st.copies[slot];
  const auto tbl24 = table.tbl24();
  const auto tbl_long = table.tbl_long();
  assert(tbl_long.size() / route::Ipv4Table::kChunk <= kMaxOverflowChunks);
  lpm::reserve(st, copy.tbl24, tbl24.size_bytes(), tbl24.size_bytes());
  lpm::copy_in(*st.device, copy.tbl24, tbl24);
  // Every copy has at least a placeholder overflow chunk so the kernel's
  // pointer is always valid.
  lpm::reserve(st, copy.tbl_long,
               std::max<std::size_t>(tbl_long.size_bytes(), 2 * route::Ipv4Table::kChunk),
               std::size_t{kMaxOverflowChunks} * route::Ipv4Table::kChunk * sizeof(u16));
  lpm::copy_in(*st.device, copy.tbl_long, tbl_long);
}

void Ipv4ForwardApp::bind_gpu(gpu::GpuDevice& device) {
  lpm::bind(gpu_state_, device, sizeof(u32), fib_, table_, &Ipv4ForwardApp::upload);
}

int Ipv4ForwardApp::sync() {
  return fib_ != nullptr ? lpm::sync(gpu_state_, *fib_, &Ipv4ForwardApp::upload) : 0;
}

void Ipv4ForwardApp::pre_shade(core::ShaderJob& job) {
  auto& chunk = job.chunk;
  for (u32 i = 0; i < chunk.count(); ++i) {
    perf::charge_cpu_cycles(perf::kPreShadingCyclesPerPacket);
    if (!classify_and_rewrite(chunk, i)) continue;
    const u32 dst = chunk_view_dst(chunk, i);
    const auto* bytes = reinterpret_cast<const u8*>(&dst);
    job.gpu_input.insert(job.gpu_input.end(), bytes, bytes + sizeof(u32));
    job.gpu_index.push_back(i);
  }
  job.gpu_items = static_cast<u32>(job.gpu_index.size());
}

core::ShadeOutcome Ipv4ForwardApp::shade(core::GpuContext& gpu,
                                         std::span<core::ShaderJob* const> jobs,
                                         Picos submit_time) {
  auto& st = *gpu_state_.at(gpu.device->gpu_id());
  const auto& copy = st.copies[st.active.load(std::memory_order_acquire)];
  const struct {
    const u16* tbl24;
    const u16* tbl_long;
    const u32* in;
    u16* out;
  } args{copy.tbl24.as<const u16>(), copy.tbl_long.as<const u16>(), st.input.as<const u32>(),
         st.output.as<u16>()};
  return lpm::shade(gpu, jobs, submit_time, st, sizeof(u32), [&args](u32 first, u32 count) {
    return gpu::KernelLaunch{
        .name = "ipv4_lookup",
        .threads = count,
        .body =
            [a = &args, first](gpu::ThreadCtx& ctx) {
              const u32 k = first + ctx.thread_id();
              a->out[k] = route::Ipv4Table::lookup_in_arrays(a->tbl24, a->tbl_long, a->in[k]);
            },
        // One table probe for ~97% of packets, two for prefixes >/24.
        .cost = {.instructions = perf::kGpuIpv4LookupInstr, .mem_accesses = 1.05},
    };
  });
}

void Ipv4ForwardApp::shade_cpu(core::ShaderJob& job) {
  // Same computation as the kernel, host tables, no header rewrites. The
  // gathered input is already a dense key array, so the whole job goes
  // through one batched lookup.
  const auto table = read();
  const auto* in = reinterpret_cast<const u32*>(job.gpu_input.data());
  job.gpu_output.resize(job.gpu_items * sizeof(u16));
  auto* out = reinterpret_cast<u16*>(job.gpu_output.data());
  if (batched_lookup_) {
    perf::charge_cpu_cycles(job.gpu_items * perf::kCpuIpv4LookupBatchCycles);
    table->lookup_batch(in, out, job.gpu_items);
    return;
  }
  for (u32 k = 0; k < job.gpu_items; ++k) {
    perf::charge_cpu_cycles(perf::kCpuIpv4LookupCycles);
    out[k] = table->lookup(net::Ipv4Addr(in[k]));
  }
}

void Ipv4ForwardApp::post_shade(core::ShaderJob& job) { lpm::post_shade(job); }

void Ipv4ForwardApp::process_cpu(iengine::PacketChunk& chunk) {
  // One epoch pin per chunk: routes may change between chunks, never
  // within one.
  const auto table = read();
  if (!batched_lookup_) {
    for (u32 i = 0; i < chunk.count(); ++i) {
      perf::charge_cpu_cycles(perf::kCpuIpv4LookupCycles);
      if (!classify_and_rewrite(chunk, i)) continue;
      lpm::route_packet(chunk, i, table->lookup(net::Ipv4Addr(chunk_view_dst(chunk, i))));
    }
    return;
  }
  // Slowpath / CPU-only mode: gather eligible destinations into a stack
  // block, resolve with one batched lookup, scatter the verdicts.
  u32 keys[lpm::kCpuBatchBlock] = {};
  u32 idx[lpm::kCpuBatchBlock] = {};
  route::NextHop nhs[lpm::kCpuBatchBlock] = {};
  u32 m = 0;
  const auto flush = [&] {
    table->lookup_batch(keys, nhs, m);
    for (u32 k = 0; k < m; ++k) lpm::route_packet(chunk, idx[k], nhs[k]);
    m = 0;
  };
  for (u32 i = 0; i < chunk.count(); ++i) {
    perf::charge_cpu_cycles(perf::kCpuIpv4LookupBatchCycles);
    if (!classify_and_rewrite(chunk, i)) continue;
    keys[m] = chunk_view_dst(chunk, i);
    idx[m] = i;
    if (++m == lpm::kCpuBatchBlock) flush();
  }
  flush();
}

}  // namespace ps::apps
