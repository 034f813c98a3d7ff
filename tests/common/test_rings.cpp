// SPSC ring, fan-in and wake signal: capacity/FIFO invariants plus
// cross-thread stress.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/spsc_ring.hpp"

namespace ps {
namespace {

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.pop(), i);
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, CapacityRoundsToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99));  // full
  EXPECT_EQ(ring.pop(), 0);
  EXPECT_TRUE(ring.push(99));  // space reclaimed
}

TEST(SpscRing, PopBatch) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ring.push(i);
  int out[16];
  EXPECT_EQ(ring.pop_batch(out, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.pop_batch(out, 16), 6u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(ring.pop_batch(out, 16), 0u);
}

TEST(SpscRing, WrapAroundManyTimes) {
  SpscRing<u64> ring(4);
  u64 next_push = 0, next_pop = 0;
  for (int round = 0; round < 1000; ++round) {
    while (ring.push(next_push)) ++next_push;
    while (auto v = ring.pop()) {
      EXPECT_EQ(*v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, next_pop);
}

TEST(SpscRing, CrossThreadStress) {
  SpscRing<u64> ring(64);
  constexpr u64 kCount = 200'000;

  std::thread producer([&] {
    for (u64 i = 0; i < kCount;) {
      if (ring.push(i)) ++i;
    }
  });
  u64 expected = 0;
  while (expected < kCount) {
    if (auto v = ring.pop()) {
      ASSERT_EQ(*v, expected);  // FIFO and no loss under concurrency
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingRejectsWithoutClobbering) {
  // A rejected push must leave the ring contents intact — this is the
  // guarantee the master relies on when a worker's output ring is full.
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99));
  EXPECT_FALSE(ring.push(100));
  EXPECT_EQ(ring.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring.pop(), i);  // untouched
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, MinimumCapacityIsTwo) {
  SpscRing<int> ring(1);
  EXPECT_GE(ring.capacity(), 2u);
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
}

// ---------------------------------------------------------------------------
// SpscFanIn: the lock-free worker->master hand-off (PR 8). These tests pin
// the documented contract — per-producer FIFO, cross-producer round-robin,
// capacity isolation — and torture the idle-path wait/notify protocol.
// ---------------------------------------------------------------------------

TEST(SpscFanIn, CapacitySplitsEvenlyAndRoundsUp) {
  // 3 producers sharing 64 slots: 64/3 = 21 -> bit_ceil -> 32 each.
  SpscFanIn<int> q(3, 64);
  EXPECT_EQ(q.producers(), 3u);
  EXPECT_EQ(q.per_ring_capacity(), 32u);
  EXPECT_EQ(q.capacity(), 96u);

  // Degenerate request: every lane still gets the minimum of 2.
  SpscFanIn<int> tiny(3, 1);
  EXPECT_EQ(tiny.per_ring_capacity(), 2u);
  EXPECT_EQ(tiny.capacity(), 6u);
}

TEST(SpscFanIn, FullLaneRejectsAndCountsWithoutStarvingPeers) {
  SpscFanIn<int> q(2, 4);  // 2 slots per lane
  ASSERT_EQ(q.per_ring_capacity(), 2u);
  EXPECT_TRUE(q.try_push(0, 10));
  EXPECT_TRUE(q.try_push(0, 11));
  EXPECT_FALSE(q.try_push(0, 12));  // lane 0 full
  EXPECT_EQ(q.full_spins(0), 1u);
  // Lane 1 is isolated: producer 0 saturating its ring cannot take lane
  // 1's hand-off slots.
  EXPECT_TRUE(q.try_push(1, 20));
  EXPECT_EQ(q.full_spins(1), 0u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(SpscFanIn, ClosedRefusesWithoutCountingFullSpin) {
  SpscFanIn<int> q(1, 4);
  q.close();
  EXPECT_FALSE(q.try_push(0, 1));
  // A refusal because of shutdown is not ring pressure; the telemetry
  // counter must not conflate the two.
  EXPECT_EQ(q.full_spins(0), 0u);
  EXPECT_TRUE(q.drained());
}

TEST(SpscFanIn, PerProducerFifoAcrossBatchedPops) {
  SpscFanIn<std::pair<int, u64>> q(3, 48);
  u64 pushed[3] = {};
  u64 popped[3] = {};
  std::vector<std::pair<int, u64>> out;
  out.reserve(48);
  // Interleave pushes and differently sized pops; each producer's stream
  // must come out in push order no matter how the sweeps slice it.
  for (int round = 0; round < 200; ++round) {
    for (int p = 0; p < 3; ++p) {
      const int burst = (round + p) % 4;
      for (int i = 0; i < burst; ++i) {
        if (q.try_push(static_cast<std::size_t>(p), {p, pushed[p]})) ++pushed[p];
      }
    }
    const std::size_t batch = 1 + static_cast<std::size_t>(round % 7);
    q.pop_batch(out, batch);
    for (const auto& [p, seq] : out) EXPECT_EQ(seq, popped[p]++);
  }
  while (q.pop_batch(out, 16) > 0) {
    for (const auto& [p, seq] : out) EXPECT_EQ(seq, popped[p]++);
  }
  for (int p = 0; p < 3; ++p) EXPECT_EQ(popped[p], pushed[p]);
}

TEST(SpscFanIn, RoundRobinSweepDrainsEveryLane) {
  // One item in each of 4 lanes; a pop_batch with max=2 must take from two
  // *different* lanes (cursor advances), and the next sweep must pick up
  // the remaining two — no lane is structurally favoured or skipped.
  SpscFanIn<int> q(4, 16);
  for (int p = 0; p < 4; ++p) ASSERT_TRUE(q.try_push(static_cast<std::size_t>(p), p));
  std::vector<int> out;
  out.reserve(16);
  EXPECT_EQ(q.pop_batch(out, 2), 2u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(q.pop_batch(out, 2), 2u);
  EXPECT_EQ(out[0], 2);  // cursor resumed where the last sweep stopped
  EXPECT_EQ(out[1], 3);
}

TEST(SpscFanIn, NoGlobalFifoAcrossProducers) {
  // The documented weakening vs a global FIFO: an item pushed by producer 1
  // before an item from producer 0 may still be delivered after it when
  // the cursor reaches lane 0 first. Callers own cross-producer ordering.
  SpscFanIn<int> q(2, 8);
  ASSERT_TRUE(q.try_push(1, 100));  // pushed first...
  ASSERT_TRUE(q.try_push(0, 200));
  std::vector<int> out;
  out.reserve(8);
  EXPECT_EQ(q.pop_batch(out, 2), 2u);
  EXPECT_EQ(out[0], 200);  // ...but lane 0 is swept first from a fresh cursor
  EXPECT_EQ(out[1], 100);
}

TEST(SpscFanIn, BatchOccupancyTelemetry) {
  SpscFanIn<int> q(1, 16);
  std::vector<int> out;
  out.reserve(16);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.try_push(0, i));
  q.pop_batch(out, 16);  // one drain of 6
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(q.try_push(0, i));
  q.pop_batch(out, 16);  // one drain of 2
  q.pop_batch(out, 16);  // empty sweep: not a drain
  EXPECT_EQ(q.batch_occupancy(0), 4u);  // (6 + 2) / 2
}

TEST(SpscFanIn, PopBatchWaitTimesOutEmptyAndWakesOnClose) {
  SpscFanIn<int> q(2, 8);
  std::vector<int> out;
  out.reserve(8);
  EXPECT_EQ(q.pop_batch_wait_for(out, 8, std::chrono::milliseconds(5)), 0u);
  EXPECT_FALSE(q.drained());

  std::thread consumer([&] {
    std::vector<int> local;
    local.reserve(8);
    // Long deadline: only close() can end this promptly.
    EXPECT_EQ(q.pop_batch_wait_for(local, 8, std::chrono::seconds(30)), 0u);
    EXPECT_TRUE(q.drained());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(SpscFanIn, TortureAllItemsDeliveredInOrder) {
  // Hand-off torture: 3 producers x ~333k items through small rings while
  // one consumer drains with varying batch sizes. Checked per producer:
  // strict sequence order (FIFO) and a running checksum of the delivered
  // stream. Run under TSan this doubles as the data-race proof for the
  // acquire/release protocol.
  constexpr std::size_t kProducers = 3;
  constexpr u64 kPerProducer = 1'000'000 / kProducers;
  SpscFanIn<std::pair<u32, u64>> q(kProducers, 64);

  std::vector<std::thread> producers;
  std::array<u64, kProducers> pushed_sum{};
  for (u32 p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &pushed_sum, p] {
      u64 sum = 0;
      for (u64 i = 0; i < kPerProducer;) {
        if (q.try_push(p, {p, i})) {
          sum += i;
          ++i;
        }
      }
      pushed_sum[p] = sum;
    });
  }

  std::array<u64, kProducers> next_seq{};
  std::array<u64, kProducers> popped_sum{};
  std::vector<std::pair<u32, u64>> out;
  out.reserve(64);
  u64 received = 0;
  std::size_t batch = 1;
  while (received < kProducers * kPerProducer) {
    const std::size_t n =
        q.pop_batch_wait_for(out, batch, std::chrono::milliseconds(100));
    for (std::size_t i = 0; i < n; ++i) {
      const auto [p, seq] = out[i];
      ASSERT_EQ(seq, next_seq[p]++);  // per-producer FIFO, nothing lost
      popped_sum[p] += seq;
    }
    received += n;
    batch = batch % 64 + 1;  // sweep all batch sizes 1..64
  }
  for (auto& t : producers) t.join();
  for (u32 p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer);
    EXPECT_EQ(popped_sum[p], pushed_sum[p]);  // checksum of delivered stream
  }
  EXPECT_TRUE(q.size() == 0);
}

TEST(SpscFanIn, NoLostWakeupUnderSingleItemHandoffs) {
  // Interleaving probe for the store-buffering race in WakeSignal: one
  // item at a time, with the consumer parking on a *long* deadline before
  // or while the producer publishes. If a wakeup were ever lost, one
  // iteration would eat the full 2 s deadline and the loop would blow the
  // elapsed budget; instead every hand-off must complete promptly.
  SpscFanIn<int> q(1, 4);
  constexpr int kIters = 2'000;
  const auto t0 = std::chrono::steady_clock::now();

  std::thread consumer([&] {
    std::vector<int> out;
    out.reserve(4);
    for (int i = 0; i < kIters;) {
      const std::size_t n = q.pop_batch_wait_for(out, 4, std::chrono::seconds(2));
      for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(out[k], i++);
    }
  });
  for (int i = 0; i < kIters; ++i) {
    while (!q.try_push(0, i)) std::this_thread::yield();
    if (i % 64 == 0) std::this_thread::yield();  // vary the interleaving
  }
  consumer.join();

  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Generous bound for slow CI: 2000 hand-offs of ~us each. A single lost
  // wakeup costs 2 s and fails this alone.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1900));
}

TEST(WakeSignal, NotifyAfterPrepareWaitIsNeverLost) {
  // The exact window the generation counter exists for: the producer's
  // notify() lands after prepare_wait() snapshots the token but before
  // wait_until() parks. The bumped wake_seq_ must end the wait instantly.
  WakeSignal w;
  const u64 token = w.prepare_wait();
  w.notify();  // waiting_ is true: bumps the generation
  EXPECT_TRUE(
      w.wait_until(token, std::chrono::steady_clock::now() + std::chrono::seconds(10)));
}

TEST(WakeSignal, NotifyWithoutWaiterIsCheapNoOp) {
  // No consumer advertised: notify() must not leave a stale generation
  // that spuriously satisfies a *later* wait (edge-triggered contract —
  // the waiter re-checks its queues between prepare and park, so an
  // earlier notify is covered by that re-check, not by the token).
  WakeSignal w;
  w.notify();  // waiting_ == false: returns before touching the lock
  const u64 token = w.prepare_wait();
  w.cancel_wait();
  EXPECT_FALSE(
      w.wait_until(token, std::chrono::steady_clock::now() + std::chrono::milliseconds(5)));
}

TEST(WakeSignal, CrossThreadParkAndWake) {
  WakeSignal w;
  std::atomic<bool> published{false};
  std::thread consumer([&] {
    for (;;) {
      const u64 token = w.prepare_wait();
      if (published.load(std::memory_order_relaxed)) {  // the mandated re-check
        w.cancel_wait();
        return;
      }
      if (w.wait_until(token, std::chrono::steady_clock::now() + std::chrono::seconds(2))) {
        EXPECT_TRUE(published.load(std::memory_order_relaxed));
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  published.store(true, std::memory_order_relaxed);
  w.notify();
  consumer.join();
}

}  // namespace
}  // namespace ps
