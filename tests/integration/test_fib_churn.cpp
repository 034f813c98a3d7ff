// FIB churn under traffic: a control-plane thread announces/withdraws
// prefixes and commits while the real-threaded router forwards and fault
// injection fires on the master queue. Double buffering means no torn
// lookups (a packet sees the old table or the new one, never a mix), and
// commit latency stays bounded because the rebuild happens off the data
// path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "apps/ipv4_forward.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "fault/fault_injector.hpp"
#include "gen/traffic.hpp"

namespace ps {
namespace {

using namespace std::chrono_literals;

// Commit latency is a wall-clock bound; give TSan's ~10-20x slowdown and
// single-core scheduling room without weakening the native bound.
#if defined(__SANITIZE_THREAD__)
constexpr auto kCommitBound = 20s;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr auto kCommitBound = 20s;
#else
constexpr auto kCommitBound = 2s;
#endif
#else
constexpr auto kCommitBound = 2s;
#endif

bool wait_for(const std::function<bool()>& cond, std::chrono::milliseconds timeout = 20000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

TEST(FibChurn, CommitsUnderTrafficAndFaultsCauseNoTornLookupsOrLoss) {
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});  // default route, never withdrawn
  fib.commit();
  apps::Ipv4ForwardApp app(fib);

  core::Testbed testbed({.topo = pcie::Topology::single_node(),
                         .use_gpu = true,
                         .ring_size = 4096,
                         .gpu_pool_workers = 0},
                        core::RouterConfig{.use_gpu = true});
  gen::TrafficGen traffic({.frame_size = 64, .seed = 71});
  testbed.connect_sink(&traffic);

  // Faults fire while the churn runs: a window of master-queue push
  // failures forces workers onto the CPU fallback mid-churn.
  fault::FaultInjector inj(/*seed=*/11);
  inj.add_rule({.point = std::string(fault::Point::kMasterQueue), .after = 50, .count = 100});
  testbed.set_fault_injector(&inj);

  core::RouterConfig config;
  config.use_gpu = true;
  config.chunk_capacity = 64;
  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.set_fault_injector(&inj);
  router.start();

  std::atomic<bool> churn_done{false};
  std::atomic<u64> accepted{0};
  std::thread offerer([&] {
    while (!churn_done.load(std::memory_order_relaxed)) {
      accepted.fetch_add(traffic.offer(testbed.ports(), 500), std::memory_order_relaxed);
      std::this_thread::sleep_for(500us);
    }
  });

  // Control plane: churn /8 routes through announce -> commit -> sync ->
  // withdraw -> commit -> sync while the data path runs at full tilt.
  constexpr int kRounds = 12;
  std::chrono::steady_clock::duration worst_commit{0};
  const u64 base_generation = fib.generation();
  for (int r = 0; r < kRounds; ++r) {
    const route::Ipv4Prefix p{net::Ipv4Addr(static_cast<u8>(10 + r), 0, 0, 0), 8, 2};

    fib.announce(p);
    auto t0 = std::chrono::steady_clock::now();
    fib.commit();
    worst_commit = std::max(worst_commit, std::chrono::steady_clock::now() - t0);
    EXPECT_EQ(app.sync(), 1);

    std::this_thread::sleep_for(2ms);  // forward against the new table

    ASSERT_TRUE(fib.withdraw(p));
    t0 = std::chrono::steady_clock::now();
    fib.commit();
    worst_commit = std::max(worst_commit, std::chrono::steady_clock::now() - t0);
    EXPECT_EQ(app.sync(), 1);

    std::this_thread::sleep_for(2ms);
  }
  churn_done.store(true);
  offerer.join();

  // Every effective commit bumped the generation, and rebuilding the
  // DIR-24-8 table off the data path kept commit latency bounded.
  EXPECT_EQ(fib.generation(), base_generation + 2 * kRounds);
  EXPECT_LT(worst_commit, kCommitBound);

  // The fault window fired mid-run and workers absorbed it on the CPU.
  EXPECT_GT(inj.stats(fault::Point::kMasterQueue).fired, 0u);

  EXPECT_TRUE(wait_for([&] { return traffic.sunk_packets() == accepted.load(); }));
  router.stop();

  const auto stats = router.stats();
  EXPECT_GT(stats.cpu_processed, 0u);  // the fault window was absorbed
  // No torn lookups: the default route was present in every snapshot, so
  // not one packet missed the table.
  EXPECT_EQ(stats.drops(iengine::DropReason::kNoRoute), 0u);
  EXPECT_EQ(stats.packets_in, accepted.load());
  EXPECT_EQ(stats.packets_out, accepted.load());
  EXPECT_EQ(stats.dropped(), 0u);

  const auto audit = router.audit();
  EXPECT_TRUE(audit.balanced());
  EXPECT_EQ(audit.in_flight, 0u);
}

}  // namespace
}  // namespace ps
