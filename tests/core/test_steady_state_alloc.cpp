// Steady-state allocation-freedom: once the router's staging buffers,
// queues, and scratch blocks are warm, forwarding traffic through the
// CPU-only pipeline must not touch the global allocator. The counting
// operator new in telemetry/alloc_stats.cpp (PS_ALLOC_STATS builds) makes
// that an assertable property rather than a code-review convention.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/ipv4_forward.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "route/fib_manager.hpp"
#include "route/ipv4_table.hpp"
#include "telemetry/alloc_stats.hpp"

namespace ps::core {
namespace {

using namespace std::chrono_literals;

route::Ipv4Table default_route_table(route::NextHop out) {
  route::Ipv4Table table;
  const route::Ipv4Prefix rib[] = {{net::Ipv4Addr(0), 0, out}};
  table.build(rib);
  return table;
}

/// Forward bursts through `app` on a router over `testbed` and expect the
/// allocation counter to stay flat once warm.
void expect_steady_state_allocation_free(Testbed& testbed, Shader& app, bool use_gpu) {
  gen::TrafficGen traffic{{.seed = 23}};
  testbed.connect_sink(&traffic);

  RouterConfig config;
  config.use_gpu = use_gpu;
  Router router(testbed.engine(), testbed.gpus(), app, config);
  router.start();

  // Warmup: the first bursts grow every staging vector, thread-local
  // chunk, and pooled sub-job to its steady-state capacity.
  u64 total = 0;
  for (int burst = 0; burst < 4; ++burst) {
    total += traffic.offer(testbed.ports(), 2000);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (traffic.sunk_packets() < total &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(traffic.sunk_packets(), total) << "warmup burst " << burst << " not drained";
  }

  // Measured phase: same traffic shape, allocation counter must be flat.
  // The counter is sampled after offer() returns (frame generation itself
  // allocates) and the polling loop below only reads an atomic, so the
  // measured window contains nothing but the router's steady-state work.
  total += traffic.offer(testbed.ports(), 4000);
  const u64 before = telemetry::allocations();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (traffic.sunk_packets() < total && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(traffic.sunk_packets(), total) << "measured burst not drained";
  const u64 after = telemetry::allocations();

  EXPECT_EQ(after - before, 0u)
      << "steady-state forwarding allocated " << (after - before)
      << " times; a staging buffer or queue is growing per-packet";

  router.stop();
  testbed.connect_sink(nullptr);
}

TEST(SteadyStateAlloc, CpuOnlyForwardingIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) {
    GTEST_SKIP() << "built without PS_ALLOC_STATS (sanitizer build?)";
  }
  Testbed testbed(TestbedConfig{.topo = pcie::Topology::paper_server(),
                                .use_gpu = false,
                                .ring_size = 4096},
                  RouterConfig{.use_gpu = false});
  route::Ipv4Table table = default_route_table(1);
  apps::Ipv4ForwardApp app{table};
  expect_steady_state_allocation_free(testbed, app, false);
}

TEST(SteadyStateAlloc, FibBackedGpuForwardingIsAllocationFree) {
  if (!telemetry::alloc_stats_enabled()) {
    GTEST_SKIP() << "built without PS_ALLOC_STATS (sanitizer build?)";
  }
  Testbed testbed(TestbedConfig{.topo = pcie::Topology::paper_server(),
                                .use_gpu = true,
                                .ring_size = 4096},
                  RouterConfig{.use_gpu = true});
  route::Ipv4Fib fib;
  fib.announce({net::Ipv4Addr(0), 0, 1});
  fib.commit();
  apps::Ipv4ForwardApp app{fib};
  for (gpu::GpuDevice* device : testbed.gpus()) app.bind_gpu(*device);
  // One commit and one sync() before the measured run: the standby table
  // copies exist, so the data path reads a double-buffered device table.
  fib.announce({net::Ipv4Addr(0), 0, 2});
  fib.commit();
  ASSERT_EQ(app.sync(), static_cast<int>(testbed.gpus().size()));
  expect_steady_state_allocation_free(testbed, app, true);
}

}  // namespace
}  // namespace ps::core
