// Measurement from outside the program: spans recorded around calls into
// each layer's public functions, a Shader decorator, a checking wire sink,
// and per-thread scheduler counters from /proc.
#pragma once

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "core/shader.hpp"
#include "gen/traffic.hpp"
#include "nic/wire.hpp"
#include "route/fib_manager.hpp"

namespace perfbench {

using namespace ps;

/// Span names (the layer boundary each one brackets).
enum class SpanName : u8 {
  kPreShade,    // apps: Shader::pre_shade, worker thread
  kShade,       // apps: Shader::shade (one gathered batch), master thread
  kShadeCpu,    // apps: Shader::shade_cpu (fallback)
  kPostShade,   // apps: Shader::post_shade, worker thread
  kOffer,       // gen+nic: one closed-loop offer call, load thread
  kChurnBatch,  // route+apps: one update batch (parent of the two below)
  kCommit,      // route: Ipv4Fib::try_commit
  kSync,        // apps: DynamicIpv4ForwardApp::sync
  kCount,
};
const char* span_name(SpanName name);

/// One recorded span. `corr` correlates spans of one chunk across threads
/// (the ShaderJob address); `parent` indexes the enclosing span in the
/// same thread's buffer (-1 = none).
struct Span {
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 corr = 0;
  u64 child_ns = 0;  // time covered by children (same thread, nested)
  i32 parent = -1;
  u32 items = 0;     // packets (or ops) the span covered
  u32 tid = 0;
  SpanName name = SpanName::kCount;
};

/// Spans in preallocated per-thread buffers: a thread claims a buffer on
/// its first record, and nothing allocates afterwards. Recording is gated
/// by enabled(), so the decorator can sit in place with tracing off.
class SpanLog {
 public:
  /// The load thread, the worker and the master record; one spare.
  static constexpr std::size_t kThreads = 4;

  explicit SpanLog(std::size_t per_thread);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Open a span on the calling thread; returns its index (-1 = not
  /// recorded). Close with end(). Spans opened while another is open on
  /// the same thread become its children.
  i32 begin(SpanName name, u64 corr, u32 items);
  void end(i32 index);

  u64 dropped() const;
  /// Every recorded span, per thread buffer.
  std::vector<std::span<const Span>> buffers() const;
  /// Write all spans (CSV, one per line) to `path`.
  void write(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::size_t size = 0;
    i32 open = -1;  // innermost open span
    u64 dropped = 0;
    u32 tid = 0;
  };
  Buffer* mine();

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> claimed_{0};
  std::array<Buffer, kThreads> buffers_;
};

u64 now_ns();
u32 this_tid();

/// RAII span on the calling thread.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanName name, u64 corr, u32 items)
      : log_(log), index_(log != nullptr ? log->begin(name, corr, items) : -1) {}
  ~SpanScope() {
    if (index_ >= 0) log_->end(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  i32 index_;
};

/// Decorator over the real app: forwards every call and brackets it with
/// a span. Learns the worker and master thread ids from the calls
/// themselves (pre_shade runs on a worker, shade on the master).
class TimedShader final : public core::Shader {
 public:
  TimedShader(core::Shader& inner, SpanLog& log, u32 gather_max)
      : inner_(inner), log_(log), gather_max_(gather_max) {}

  const char* name() const override { return inner_.name(); }
  void bind_gpu(gpu::GpuDevice& device) override { inner_.bind_gpu(device); }
  void pre_shade(core::ShaderJob& job) override;
  core::ShadeOutcome shade(core::GpuContext& gpu, std::span<core::ShaderJob* const> jobs,
                           Picos submit_time = 0) override;
  void shade_cpu(core::ShaderJob& job) override;
  void post_shade(core::ShaderJob& job) override;
  void process_cpu(iengine::PacketChunk& chunk) override;

  u32 worker_tid() const { return worker_tid_.load(std::memory_order_relaxed); }
  u32 master_tid() const { return master_tid_.load(std::memory_order_relaxed); }
  /// shade_cpu calls (master fallback or worker divert), while enabled.
  u64 shade_cpu_calls() const { return shade_cpu_calls_.load(std::memory_order_relaxed); }
  /// Sum over recorded shade() calls of jobs/gather_max, and their count.
  double gather_fill_sum() const { return gather_fill_sum_; }
  u64 shade_calls() const { return shade_calls_; }

 private:
  core::Shader& inner_;
  SpanLog& log_;
  u32 gather_max_;
  std::atomic<u32> worker_tid_{0};
  std::atomic<u32> master_tid_{0};
  std::atomic<u64> shade_cpu_calls_{0};
  double gather_fill_sum_ = 0.0;  // master thread only
  u64 shade_calls_ = 0;           // master thread only
};

/// What the checking sink keeps of one sampled TX frame.
struct TxSample {
  u32 dst = 0;         // IPv4 destination (inner for plain IPv4)
  u32 offer_gen = 0;   // churn: FIB generation stamped at offer time
  u32 tx_gen = 0;      // churn: FIB generation live when the frame left
  i16 port = -1;
  u8 ttl_ok = 0;
  u8 csum_ok = 0;
  u32 frame_off = 0;   // ipsec: offset of the frame copy in the arena
  u32 frame_len = 0;
};

/// Wire sink in front of the generator's sink: every frame goes on to
/// `next`; every `period`-th is sampled for the output checks. Sampling
/// writes only preallocated, pre-touched memory.
class CheckingSink final : public nic::WireSink {
 public:
  CheckingSink(gen::TrafficGen& next, u32 period, std::size_t max_samples, bool keep_frames,
               std::size_t max_frame);

  /// Churn: the FIB whose live generation is stamped on each sample.
  void set_fib(const route::Ipv4Fib* fib) { fib_ = fib; }

  void on_frame(int port, std::span<const u8> frame) override;

  std::span<const TxSample> samples() const;
  std::span<const u8> frame_of(const TxSample& s) const {
    return {arena_.data() + s.frame_off, s.frame_len};
  }
  u64 unsampled_overflow() const { return overflow_.load(std::memory_order_relaxed); }

 private:
  gen::TrafficGen& next_;
  u32 period_;
  bool keep_frames_;
  std::size_t max_frame_;
  const route::Ipv4Fib* fib_ = nullptr;
  std::atomic<u64> seen_{0};
  std::atomic<u64> taken_{0};
  std::atomic<u64> overflow_{0};
  std::vector<TxSample> samples_;
  std::vector<u8> arena_;
};

/// Scheduler counters of one thread (/proc/self/task/<tid>/{schedstat,status}).
struct ThreadSched {
  u64 on_cpu_ns = 0;
  u64 runq_wait_ns = 0;
  u64 voluntary_switches = 0;
};
ThreadSched read_thread_sched(u32 tid);

/// Host CPU time stolen from this guest and total CPU time so far, in
/// clock ticks summed over all CPUs (/proc/stat; zeros if unreadable).
struct CpuTicks {
  u64 steal = 0;
  u64 total = 0;
};
CpuTicks read_cpu_ticks();

/// Process minor faults so far (getrusage).
u64 minor_faults();
/// Peak resident set size in MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// Quantile (0..1) of `v` by nearest rank; sorts `v`. 0 when empty.
double quantile(std::vector<double>& v, double q);

}  // namespace perfbench
