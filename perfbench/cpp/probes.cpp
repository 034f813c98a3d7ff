#include "probes.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"

namespace perfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kPreShade: return "apps.pre_shade";
    case SpanName::kShade: return "apps.shade";
    case SpanName::kShadeCpu: return "apps.shade_cpu";
    case SpanName::kPostShade: return "apps.post_shade";
    case SpanName::kOffer: return "gen.offer";
    case SpanName::kChurnBatch: return "route.churn_batch";
    case SpanName::kCommit: return "route.commit";
    case SpanName::kSync: return "apps.sync";
    case SpanName::kCount: break;
  }
  return "?";
}

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

u32 this_tid() {
  thread_local const u32 tid = static_cast<u32>(::syscall(SYS_gettid));
  return tid;
}

SpanLog::SpanLog(std::size_t per_thread) {
  for (auto& b : buffers_) {
    b.spans.resize(per_thread);  // value-initialised: every page touched now
  }
}

SpanLog::Buffer* SpanLog::mine() {
  thread_local SpanLog* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    const std::size_t slot = claimed_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kThreads) return nullptr;
    owner = this;
    buffer = &buffers_[slot];
    buffer->tid = this_tid();
  }
  return buffer;
}

i32 SpanLog::begin(SpanName name, u64 corr, u32 items) {
  if (!enabled()) return -1;
  Buffer* b = mine();
  if (b == nullptr) return -1;
  if (b->size == b->spans.size()) {
    ++b->dropped;
    return -1;
  }
  const auto index = static_cast<i32>(b->size++);
  Span& s = b->spans[static_cast<std::size_t>(index)];
  s = Span{};
  s.name = name;
  s.corr = corr;
  s.items = items;
  s.tid = b->tid;
  s.parent = b->open;
  b->open = index;
  s.start_ns = now_ns();
  return index;
}

void SpanLog::end(i32 index) {
  Buffer* b = mine();
  Span& s = b->spans[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  b->open = s.parent;
  if (s.parent >= 0) {
    b->spans[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
}

u64 SpanLog::dropped() const {
  u64 total = 0;
  for (const auto& b : buffers_) total += b.dropped;
  return total;
}

std::vector<std::span<const Span>> SpanLog::buffers() const {
  std::vector<std::span<const Span>> out;
  const std::size_t n = std::min(claimed_.load(std::memory_order_relaxed), kThreads);
  for (std::size_t i = 0; i < n; ++i) out.emplace_back(buffers_[i].spans.data(), buffers_[i].size);
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "name,start_ns,end_ns,self_ns,tid,corr,parent,items\n");
  for (const auto& buf : buffers()) {
    for (const Span& s : buf) {
      const u64 dur = s.end_ns - s.start_ns;
      std::fprintf(f, "%s,%llu,%llu,%llu,%u,%llx,%d,%u\n", span_name(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(dur - std::min(dur, s.child_ns)), s.tid,
                   static_cast<unsigned long long>(s.corr), s.parent, s.items);
    }
  }
  std::fclose(f);
}

// --- TimedShader -------------------------------------------------------------

void TimedShader::pre_shade(core::ShaderJob& job) {
  if (worker_tid_.load(std::memory_order_relaxed) == 0) {
    worker_tid_.store(this_tid(), std::memory_order_relaxed);
  }
  SpanScope span(&log_, SpanName::kPreShade, reinterpret_cast<u64>(&job), job.chunk.count());
  inner_.pre_shade(job);
}

core::ShadeOutcome TimedShader::shade(core::GpuContext& gpu,
                                      std::span<core::ShaderJob* const> jobs, Picos submit_time) {
  if (master_tid_.load(std::memory_order_relaxed) == 0) {
    master_tid_.store(this_tid(), std::memory_order_relaxed);
  }
  u32 packets = 0;
  for (const auto* job : jobs) packets += job->chunk.count();
  if (log_.enabled()) {
    gather_fill_sum_ += static_cast<double>(jobs.size()) / gather_max_;
    ++shade_calls_;
  }
  SpanScope span(&log_, SpanName::kShade, jobs.empty() ? 0 : reinterpret_cast<u64>(jobs[0]),
                 packets);
  return inner_.shade(gpu, jobs, submit_time);
}

void TimedShader::shade_cpu(core::ShaderJob& job) {
  if (log_.enabled()) shade_cpu_calls_.fetch_add(1, std::memory_order_relaxed);
  SpanScope span(&log_, SpanName::kShadeCpu, reinterpret_cast<u64>(&job), job.chunk.count());
  inner_.shade_cpu(job);
}

void TimedShader::post_shade(core::ShaderJob& job) {
  SpanScope span(&log_, SpanName::kPostShade, reinterpret_cast<u64>(&job), job.chunk.count());
  inner_.post_shade(job);
}

void TimedShader::process_cpu(iengine::PacketChunk& chunk) { inner_.process_cpu(chunk); }

// --- CheckingSink ------------------------------------------------------------

CheckingSink::CheckingSink(gen::TrafficGen& next, u32 period, std::size_t max_samples,
                           bool keep_frames, std::size_t max_frame)
    : next_(next), period_(period), keep_frames_(keep_frames), max_frame_(max_frame) {
  samples_.resize(max_samples);
  if (keep_frames_) arena_.assign(max_samples * max_frame_, 0);
}

void CheckingSink::on_frame(int port, std::span<const u8> frame) {
  next_.on_frame(port, frame);
  if (seen_.fetch_add(1, std::memory_order_relaxed) % period_ != 0) return;
  const u64 slot = taken_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= samples_.size()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TxSample& s = samples_[slot];
  s.port = static_cast<i16>(port);
  if (keep_frames_) {
    const std::size_t len = std::min(frame.size(), max_frame_);
    s.frame_off = static_cast<u32>(slot * max_frame_);
    s.frame_len = static_cast<u32>(len);
    std::memcpy(arena_.data() + s.frame_off, frame.data(), len);
    return;
  }
  if (frame.size() < net::kMinUdpIpv4Frame + 8) return;
  net::Ipv4Header ip;
  std::memcpy(&ip, frame.data() + sizeof(net::EthernetHeader), sizeof ip);
  s.dst = ip.dst().value;
  s.ttl_ok = ip.ttl == net::FrameSpec{}.ttl - 1;
  s.csum_ok = net::ipv4_checksum_ok(ip);
  s.offer_gen = load_be32(frame.data() + net::kMinUdpIpv4Frame + 4);
  if (fib_ != nullptr) s.tx_gen = static_cast<u32>(fib_->generation());
}

std::span<const TxSample> CheckingSink::samples() const {
  return {samples_.data(),
          static_cast<std::size_t>(
              std::min<u64>(taken_.load(std::memory_order_relaxed), samples_.size()))};
}

// --- /proc and rusage --------------------------------------------------------

ThreadSched read_thread_sched(u32 tid) {
  ThreadSched out;
  if (tid == 0) return out;
  const std::string dir = "/proc/self/task/" + std::to_string(tid) + "/";
  std::ifstream sched(dir + "schedstat");
  if (!(sched >> out.on_cpu_ns >> out.runq_wait_ns)) return out;
  std::ifstream status(dir + "status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
      out.voluntary_switches = std::stoull(line.substr(line.find(':') + 1));
    }
  }
  return out;
}

CpuTicks read_cpu_ticks() {
  CpuTicks out;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  u64 field = 0;
  if (!(stat >> cpu) || cpu != "cpu") return out;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice, so stop at steal).
  for (int i = 0; i < 8 && (stat >> field); ++i) {
    out.total += field;
    if (i == 7) out.steal = field;
  }
  return out;
}

u64 minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<u64>(ru.ru_minflt);
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

}  // namespace perfbench
