// Capture layer (DESIGN.md §18): the PortTap tees frames into a pcap
// while forwarding to the original sink, the TX interposer preserves the
// existing edge, and the RX tap observes every arriving frame before
// ring-full drops — passive-optical-tap semantics under live traffic.
#include <gtest/gtest.h>

#include <cstdio>

#include "cap/capture.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "telemetry/metrics.hpp"

namespace ps::cap {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(PortTap, RecordsAndForwards) {
  const auto path = temp_path("tee.pcap");
  FrameCollector downstream;
  gen::TrafficGen traffic({.seed = 31});
  {
    gen::PcapWriter writer(path);
    PortTap tap(writer, &downstream);
    for (int i = 0; i < 8; ++i) {
      const auto frame = traffic.next_frame();
      tap.on_frame(i % 2, frame);
    }
    EXPECT_EQ(tap.frames_tapped(), 8u);
    EXPECT_GT(tap.bytes_tapped(), 0u);
  }
  EXPECT_EQ(downstream.size(), 8u);
  EXPECT_EQ(gen::read_pcap(path).size(), 8u);
  std::remove(path.c_str());
}

TEST(PortTap, PortFilterRecordsOnlyThatPortButForwardsAll) {
  const auto path = temp_path("filtered.pcap");
  FrameCollector downstream;
  gen::TrafficGen traffic({.seed = 32});
  {
    gen::PcapWriter writer(path);
    PortTap tap(writer, &downstream, /*port_filter=*/1);
    for (int i = 0; i < 10; ++i) tap.on_frame(i % 5, traffic.next_frame());
    EXPECT_EQ(tap.frames_tapped(), 2u);  // ports cycle 0..4: two hits on 1
  }
  EXPECT_EQ(downstream.size(), 10u);  // forwarding is unconditional
  EXPECT_EQ(gen::read_pcap(path).size(), 2u);
  std::remove(path.c_str());
}

TEST(PortTap, AttachTxTapInterposesOnLiveEdge) {
  const auto path = temp_path("tx_tap.pcap");
  nic::NicPort port(0, pcie::Topology::single_node(), {});
  FrameCollector original_sink;
  port.set_wire_sink(&original_sink);

  gen::TrafficGen traffic({.seed = 33});
  {
    gen::PcapWriter writer(path);
    PortTap tap(writer);
    attach_tx_tap(port, tap);
    EXPECT_EQ(port.wire_sink(), &tap);
    EXPECT_EQ(tap.downstream(), &original_sink);

    for (int i = 0; i < 6; ++i) ASSERT_TRUE(port.transmit(0, traffic.next_frame()));
    EXPECT_EQ(tap.frames_tapped(), 6u);
  }
  // The original sink still saw everything — the tap is passive.
  EXPECT_EQ(original_sink.size(), 6u);
  const auto recorded = gen::read_pcap(path);
  ASSERT_EQ(recorded.size(), 6u);
  EXPECT_EQ(recorded, original_sink.frames());
  std::remove(path.c_str());
}

TEST(PortTap, RxTapSeesFramesBeforeRingFullDrops) {
  // Offer more than the rings hold with nothing draining: accepted
  // saturates, but the RX tap — wire semantics — still records every
  // arriving frame.
  const auto path = temp_path("rx_tap.pcap");
  const auto topo = pcie::Topology::single_node();
  core::Testbed testbed(core::TestbedConfig{.topo = topo, .use_gpu = false, .ring_size = 64},
                        core::RouterConfig{.use_gpu = false});
  gen::TrafficGen traffic({.seed = 34});
  u64 offered = 0, accepted = 0;
  {
    gen::PcapWriter writer(path);
    PortTap tap(writer);
    testbed.connect_rx_tap(&tap);

    // One 64-deep RX ring per worker queue: 3x that floods every queue
    // past its ring no matter how RSS spreads the flows.
    const u64 per_port_capacity = 64 * static_cast<u64>(topo.cores_per_node);
    offered = per_port_capacity * static_cast<u64>(testbed.ports().size()) * 3;
    accepted = traffic.offer(testbed.ports(), offered);
    EXPECT_LT(accepted, offered) << "rings were expected to overflow";
    EXPECT_EQ(tap.frames_tapped(), offered);
    testbed.connect_rx_tap(nullptr);
  }
  EXPECT_EQ(gen::read_pcap(path).size(), offered);
  std::remove(path.c_str());
}

TEST(PortTap, RegistersCapMetrics) {
  const auto path = temp_path("metrics.pcap");
  gen::PcapWriter writer(path);
  PortTap tap(writer);
  telemetry::MetricsRegistry registry;
  tap.register_metrics(registry);

  gen::TrafficGen traffic({.seed = 35});
  const auto frame = traffic.next_frame();
  tap.on_frame(0, frame);
  tap.on_frame(0, frame);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.value("cap.tap.frames"), 2u);
  EXPECT_EQ(snap.value("cap.tap.bytes"), 2 * frame.size());
  std::remove(path.c_str());
}

TEST(FrameCollector, StoresFrameBytes) {
  FrameCollector collector;
  const std::vector<u8> a(64, 0xaa), b(128, 0xbb);
  collector.on_frame(0, a);
  collector.on_frame(1, b);
  ASSERT_EQ(collector.size(), 2u);
  EXPECT_EQ(collector.frames()[0], a);
  EXPECT_EQ(collector.frames()[1], b);
  EXPECT_EQ(collector.ports(), (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace ps::cap
