// Bounded lock-free single-producer / single-consumer ring.
//
// This is the queue shape the paper relies on throughout: a NIC RX/TX
// descriptor ring has exactly one producer and one consumer (section 4.4
// dedicates each queue to one core precisely to get this property), and the
// worker->master input/output queues of section 5.3 are SPSC per worker.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "common/atomic_shim.hpp"
#include "common/cacheline.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace ps {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two; the ring holds capacity
  /// elements (one slot is *not* sacrificed; we track head/tail as free
  /// running counters).
  explicit SpscRing(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Returns false when full.
  bool push(T value) {
    const u64 head = head_.load(std::memory_order_relaxed);
    const u64 tail = tail_cache_;
    if (head - tail >= capacity()) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ >= capacity()) return false;
    }
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns nullopt when empty.
  std::optional<T> pop() {
    const u64 tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return std::nullopt;
    }
    T value = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  /// Consumer-side batch pop: moves up to `max` elements into `out`,
  /// returns the count. This is the primitive behind batched packet RX.
  std::size_t pop_batch(T* out, std::size_t max) {
    const u64 tail = tail_.load(std::memory_order_relaxed);
    u64 head = head_cache_;
    if (tail == head) {
      head = head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head) return 0;
    }
    const std::size_t n = std::min<std::size_t>(max, head - tail);
    for (std::size_t i = 0; i < n; ++i) out[i] = std::move(slots_[(tail + i) & mask_]);
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Approximate occupancy; exact when called from either endpoint thread.
  std::size_t size() const noexcept {
    const u64 head = head_.load(std::memory_order_acquire);
    const u64 tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head - tail);
  }

  bool empty() const noexcept { return size() == 0; }

 private:
  const std::size_t mask_;
  std::vector<T> slots_;

  // mc: spsc.head -- producer-only writer; release store publishes the slot
  alignas(kCacheLineSize) ps::atomic<u64> head_{0};
  alignas(kCacheLineSize) u64 tail_cache_{0};  // producer-local
  // mc: spsc.tail -- consumer-only writer; release store returns the slot
  alignas(kCacheLineSize) ps::atomic<u64> tail_{0};
  alignas(kCacheLineSize) u64 head_cache_{0};  // consumer-local
};

/// Edge-triggered sleep/wake for a lock-free queue's idle path.
///
/// The hand-off itself stays lock-free; the mutex below exists only so a
/// consumer with *nothing to do* can park instead of spinning, and a
/// producer can end that nap early. The lost-wakeup hazard is the classic
/// store-buffering race: consumer publishes "I am waiting" and checks the
/// ring; producer publishes an item and checks "is anyone waiting" — with
/// plain relaxed/acquire ordering both checks can read stale values and
/// the consumer sleeps on a non-empty ring for a full idle tick. Both
/// sides therefore publish with a seq_cst fence between their store and
/// their cross-check (Dekker's protocol), and the wait itself is
/// generation-counted: prepare_wait() snapshots wake_seq_, and any
/// notify() after that snapshot bumps it, so a wakeup that lands between
/// the consumer's re-check and its wait_until() is never lost.
///
/// Cost on the producer fast path: one fence plus one relaxed load when no
/// one is waiting — no lock, no syscall.
class WakeSignal {
 public:
  /// Producer side: called after publishing work. Takes the mutex only
  /// when a consumer advertised it is (about to be) asleep.
  void notify() {
    // mc: wake.fence.notify -- Dekker: order item-publish before waiting_ check
    fence_seq_cst();
    if (!waiting_.load(std::memory_order_relaxed)) return;
    {
      // pslint: allow(handoff-mutex) -- the sanctioned slow path: taken
      // only when the consumer advertised it is parked, never per-item.
      MutexLock lock(mu_);
      ++wake_seq_;
    }
    cv_.notify_one();
  }

  /// Consumer side, step 1: advertise intent to sleep and snapshot the
  /// wake generation. The caller MUST re-check its queues between this and
  /// wait_until() — that re-check is what the seq_cst fence orders against
  /// the producer's publish.
  u64 prepare_wait() {
    waiting_.store(true, std::memory_order_relaxed);
    // mc: wake.fence.prepare -- Dekker: order waiting_=true before ring re-check
    fence_seq_cst();
    // pslint: allow(handoff-mutex) -- idle-path arm, not the hand-off.
    MutexLock lock(mu_);
    return wake_seq_;
  }

  /// Consumer side: found work after prepare_wait(); stand down.
  void cancel_wait() { waiting_.store(false, std::memory_order_relaxed); }

  /// Consumer side, step 2: sleep until a notify() newer than `token` or
  /// the deadline. Returns true if woken by a notify, false on timeout.
  template <typename Clock, typename Duration>
  bool wait_until(u64 token, std::chrono::time_point<Clock, Duration> deadline) {
    bool woken;
    {
      // pslint: allow(handoff-mutex) -- idle-path park, not the hand-off.
      MutexLock lock(mu_);
      while (wake_seq_ == token) {
        if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) break;
      }
      woken = wake_seq_ != token;
    }
    waiting_.store(false, std::memory_order_relaxed);
    return woken;
  }

 private:
  // mc: wake.waiting -- consumer advertises sleep intent; Dekker-fenced
  ps::atomic<bool> waiting_{false};
  Mutex mu_;
  u64 wake_seq_ GUARDED_BY(mu_) = 0;
  CondVar cv_;
};

/// N single-producer rings fanning into one consumer: the master's
/// lock-free input queue (section 5.3). Each
/// producer owns a private SpscRing — push never touches a lock, a cache
/// line another producer writes, or (when no consumer is parked) anything
/// beyond its own ring.
///
/// Ordering contract — weaker than a mutex-guarded global queue, and
/// relied upon by callers:
///  - per-producer FIFO: items from one producer are delivered in push
///    order (the SPSC ring guarantees it);
///  - cross-producer round-robin: the consumer sweeps the rings starting
///    from a persistent cursor, so no producer is structurally favoured —
///    but there is NO global FIFO. An item pushed by producer A before an
///    item from producer B may be delivered after it (bounded by one sweep).
/// Consumers that need arrival-order fairness across producers (none in
/// the tree) must keep their own sequence numbers.
///
/// Capacity: the total is split evenly across producers (rounded up to a
/// power of two, min 2 each), so one worker saturating its ring cannot
/// starve its peers' hand-off slots — the same isolation the backpressure
/// watermarks assume. size()/capacity() aggregate over all rings, which
/// keeps the watermark arithmetic of RouterConfig unchanged.
template <typename T>
class SpscFanIn {
 public:
  SpscFanIn(std::size_t producers, std::size_t total_capacity)
      : per_ring_capacity_(std::bit_ceil(
            std::max<std::size_t>(2, total_capacity / std::max<std::size_t>(1, producers)))) {
    assert(producers > 0);
    lanes_.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      lanes_.push_back(std::make_unique<Lane>(per_ring_capacity_));
    }
  }

  SpscFanIn(const SpscFanIn&) = delete;
  SpscFanIn& operator=(const SpscFanIn&) = delete;

  std::size_t producers() const noexcept { return lanes_.size(); }
  std::size_t capacity() const noexcept { return per_ring_capacity_ * lanes_.size(); }
  std::size_t per_ring_capacity() const noexcept { return per_ring_capacity_; }

  /// Producer `p` only. Lock-free; false when p's ring is full or the
  /// fan-in is closed (a closed fan-in refuses work like a full one).
  bool try_push(std::size_t p, T value) {
    Lane& lane = *lanes_[p];
    if (closed_.load(std::memory_order_acquire)) return false;
    if (!lane.ring.push(std::move(value))) {
      lane.full_spins.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    wake_.notify();
    return true;
  }

  /// Consumer only: drain up to `max` items into `out` (cleared first),
  /// sweeping the rings round-robin from the persistent cursor. Returns
  /// the count. `out` must have capacity reserved by the caller for the
  /// steady state to stay allocation-free.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    out.clear();
    const std::size_t n_lanes = lanes_.size();
    std::size_t total = 0;
    for (std::size_t visited = 0; visited < n_lanes && total < max; ++visited) {
      Lane& lane = *lanes_[cursor_];
      cursor_ = (cursor_ + 1) % n_lanes;
      const std::size_t want = max - total;
      out.resize(total + want);
      const std::size_t got = lane.ring.pop_batch(out.data() + total, want);
      total += got;
      out.resize(total);
      if (got > 0) {
        lane.popped_items.fetch_add(got, std::memory_order_relaxed);
        lane.drains.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return total;
  }

  /// Consumer only: timed batch pop — waits up to `timeout` for at least
  /// one item, then drains greedily; returns 0 on timeout as well as on
  /// closed-and-drained (distinguish via drained()). The idle wait is
  /// edge-triggered: a producer's try_push ends it immediately instead of
  /// costing the full idle tick.
  template <typename Rep, typename Period>
  std::size_t pop_batch_wait_for(std::vector<T>& out, std::size_t max,
                                 std::chrono::duration<Rep, Period> timeout) {
    std::size_t n = pop_batch(out, max);
    if (n > 0) return n;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      const u64 token = wake_.prepare_wait();
      // Re-check after advertising the wait: a push that raced the arm is
      // visible here (seq_cst fences on both sides), or bumps the token.
      n = pop_batch(out, max);
      if (n > 0 || closed_.load(std::memory_order_acquire)) {
        wake_.cancel_wait();
        return n;
      }
      if (!wake_.wait_until(token, deadline)) return pop_batch(out, max);
      n = pop_batch(out, max);
      if (n > 0) return n;
      if (std::chrono::steady_clock::now() >= deadline) return 0;
    }
  }

  /// Any thread. After close(), pushes fail and a parked consumer wakes.
  void close() {
    closed_.store(true, std::memory_order_release);
    wake_.notify();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Closed with nothing left to pop: the consumer may exit.
  bool drained() const { return closed() && size() == 0; }

  /// Aggregate occupancy (approximate while producers run).
  std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const auto& lane : lanes_) total += lane->ring.size();
    return total;
  }

  /// Telemetry: failed try_push attempts against producer p's full ring.
  u64 full_spins(std::size_t p) const {
    return lanes_[p]->full_spins.load(std::memory_order_relaxed);
  }
  /// Telemetry: mean items taken per non-empty drain of producer p's ring
  /// (integer-truncated) — how batchy the consumer's sweeps are.
  u64 batch_occupancy(std::size_t p) const {
    const u64 drains = lanes_[p]->drains.load(std::memory_order_relaxed);
    if (drains == 0) return 0;
    return lanes_[p]->popped_items.load(std::memory_order_relaxed) / drains;
  }

 private:
  /// One producer's lane: its ring plus telemetry counters, isolated so
  /// one producer's stats traffic cannot false-share with another's ring.
  struct Lane {
    explicit Lane(std::size_t cap) : ring(cap) {}
    SpscRing<T> ring;
    // mc: fanin.full_spins -- single-writer (producer) relaxed counter
    alignas(kCacheLineSize) ps::atomic<u64> full_spins{0};
    // mc: fanin.popped_items -- single-writer (consumer) relaxed counter
    alignas(kCacheLineSize) ps::atomic<u64> popped_items{0};
    // mc: fanin.drains -- single-writer (consumer) relaxed counter
    ps::atomic<u64> drains{0};
  };

  const std::size_t per_ring_capacity_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // Lane owns atomics: pointer-stable
  // mc: fanin.closed -- sticky shutdown latch; release pairs with push/pop acquire
  ps::atomic<bool> closed_{false};
  WakeSignal wake_;
  std::size_t cursor_ = 0;  // consumer-local round-robin position
};

}  // namespace ps
