#include "cap/golden.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "apps/ipsec_gateway.hpp"
#include "apps/ipv4_forward.hpp"
#include "apps/ipv6_forward.hpp"
#include "cap/capture.hpp"
#include "cap/replay.hpp"
#include "core/model_driver.hpp"
#include "core/router.hpp"
#include "core/testbed.hpp"
#include "gen/traffic.hpp"
#include "route/rib_gen.hpp"

namespace ps::cap {

namespace {

// Corpus seeds are arbitrary but frozen: changing any of them changes the
// committed input captures, which scripts/regen_goldens.sh must then
// regenerate along with the goldens and the checksum manifest.
constexpr u64 kIpv4TrafficSeed = 1800;
constexpr u64 kIpv4RibSeed = 1801;
constexpr u64 kIpv4PoolSeed = 1802;
constexpr u64 kIpv6RibSeed = 1803;
constexpr u64 kIpv6TrafficSeed = 1804;
constexpr u64 kIpv6PoolSeed = 1805;
constexpr u64 kIpsecTrafficSeed = 1806;
constexpr std::size_t kCorpusRibSize = 20'000;

std::vector<route::Ipv4Prefix> corpus_ipv4_rib() {
  return route::generate_ipv4_rib(
      {.prefix_count = kCorpusRibSize, .num_next_hops = 8, .seed = kIpv4RibSeed});
}

std::vector<route::Ipv6Prefix> corpus_ipv6_rib() {
  return route::generate_ipv6_rib(kCorpusRibSize, 8, kIpv6RibSeed);
}

gen::TrafficGen corpus_traffic(Corpus corpus) {
  switch (corpus) {
    case Corpus::kIpv4Imix: {
      return gen::TrafficGen({.frame_size = 64,
                              .seed = kIpv4TrafficSeed,
                              .flow_count = 64,
                              .size_dist = gen::SizeDist::kImix,
                              .ipv4_dst_pool =
                                  route::sample_covered_ipv4(corpus_ipv4_rib(), 256, kIpv4PoolSeed)});
    }
    case Corpus::kIpv6: {
      return gen::TrafficGen({.kind = gen::TrafficKind::kIpv6Udp,
                              .frame_size = 96,
                              .seed = kIpv6TrafficSeed,
                              .flow_count = 32,
                              .ipv6_dst_pool =
                                  route::sample_covered_ipv6(corpus_ipv6_rib(), 128, kIpv6PoolSeed)});
    }
    case Corpus::kIpsec:
      return gen::TrafficGen({.frame_size = 128, .seed = kIpsecTrafficSeed, .flow_count = 16});
  }
  return gen::TrafficGen();
}

/// The collected TX in canonical frame order, each frame with its port.
/// Byte-identical frames share a destination, so their order among
/// themselves cannot matter.
RoutedTx canonical_tx(const FrameCollector& sink) {
  FrameList frames = sink.frames();
  const std::vector<int> ports = sink.ports();
  std::vector<std::size_t> order(frames.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return frame_less(frames[a], frames[b]); });
  RoutedTx tx;
  for (const std::size_t i : order) {
    tx.frames.push_back(std::move(frames[i]));
    tx.ports.push_back(ports[i]);
  }
  return tx;
}

/// Replay the input through the paper-server testbed with `app` on the
/// GPU path (inline SIMT execution) under `scheduler` and collect TX.
RoutedTx run_through(core::Shader& app, const std::string& input_path, Scheduler scheduler) {
  const core::RouterConfig config{.use_gpu = true};
  core::Testbed testbed(
      {.topo = pcie::Topology::paper_server(), .use_gpu = true, .ring_size = 4096}, config);
  FrameCollector sink;
  testbed.connect_sink(&sink);

  PcapReplayer replayer(input_path, {.rate = ReplayRate::kMax, .loop_count = 1});
  if (scheduler == Scheduler::kModel) {
    core::ModelDriver driver(testbed, &app, config);
    driver.run(static_cast<gen::FrameSource&>(replayer), ~u64{0});  // exits when the capture drains
    return canonical_tx(sink);
  }

  core::Router router(testbed.engine(), testbed.gpus(), app, config);
  router.start();
  u64 accepted = 0;
  while (!replayer.exhausted()) accepted += replayer.offer_some(testbed.ports(), 64).accepted;
  // Every accepted frame is accounted once it left the pipeline; stop()
  // then joins the threads with nothing in flight. (total_stats() is safe
  // to sample while the router runs; audit() is exact only once stopped.)
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const core::WorkerStats st = router.total_stats();
    if (st.packets_out + st.dropped() + st.slow_path >= accepted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  router.stop();
  return canonical_tx(sink);
}

}  // namespace

const char* corpus_name(Corpus corpus) {
  switch (corpus) {
    case Corpus::kIpv4Imix: return "ipv4_imix";
    case Corpus::kIpv6: return "ipv6";
    case Corpus::kIpsec: return "ipsec";
  }
  return "?";
}

std::string corpus_input_path(const std::string& data_dir, Corpus corpus) {
  return data_dir + "/" + corpus_name(corpus) + "_in.pcap";
}

std::string corpus_golden_path(const std::string& data_dir, Corpus corpus) {
  return data_dir + "/" + corpus_name(corpus) + "_expected.pcap";
}

u64 corpus_frame_count(Corpus corpus) {
  switch (corpus) {
    case Corpus::kIpv4Imix: return 192;  // 16 exact IMIX windows
    case Corpus::kIpv6: return 160;
    case Corpus::kIpsec: return 160;
  }
  return 0;
}

void write_corpus_input(Corpus corpus, const std::string& path) {
  gen::PcapWriter writer(path, gen::PcapClock::kSynthetic);
  auto traffic = corpus_traffic(corpus);
  const u64 count = corpus_frame_count(corpus);
  for (u64 i = 0; i < count; ++i) {
    writer.on_frame(0, traffic.next_frame());
  }
}

RoutedTx route_corpus(Corpus corpus, const std::string& input_path, Scheduler scheduler) {
  switch (corpus) {
    case Corpus::kIpv4Imix: {
      const auto rib = corpus_ipv4_rib();
      route::Ipv4Table table;
      table.build(rib);
      apps::Ipv4ForwardApp app(table);
      return run_through(app, input_path, scheduler);
    }
    case Corpus::kIpv6: {
      const auto rib = corpus_ipv6_rib();
      route::Ipv6Table table;
      table.build(rib);
      apps::Ipv6ForwardApp app(table);
      return run_through(app, input_path, scheduler);
    }
    case Corpus::kIpsec: {
      const auto sa = corpus_ipsec_sa();  // the app keeps a reference to it
      apps::IpsecGatewayApp app(sa);
      return run_through(app, input_path, scheduler);
    }
  }
  return {};
}

std::vector<int> corpus_rib_ports(Corpus corpus, const FrameList& frames) {
  std::vector<route::Ipv4Prefix> rib4;
  std::vector<route::Ipv6Prefix> rib6;
  if (corpus == Corpus::kIpv4Imix) rib4 = corpus_ipv4_rib();
  if (corpus == Corpus::kIpv6) rib6 = corpus_ipv6_rib();
  std::vector<int> ports;
  for (std::vector<u8> frame : frames) {
    net::PacketView view;
    const bool parsed = net::parse_packet(frame.data(), static_cast<u32>(frame.size()), view) ==
                        net::ParseStatus::kOk;
    // Longest covering prefix; ties go to the later RIB entry, as in the
    // table builds.
    int best_len = -1;
    int port = -1;
    const auto consider = [&](bool covers, int length, route::NextHop nh) {
      if (covers && length >= best_len) {
        best_len = length;
        port = nh;
      }
    };
    if (parsed && view.ether_type == net::EtherType::kIpv4) {
      const net::Ipv4Addr dst = view.ipv4().dst();
      for (const auto& p : rib4) consider(p.matches(dst), p.length, p.next_hop);
    } else if (parsed && view.ether_type == net::EtherType::kIpv6) {
      const net::Ipv6Addr dst = view.ipv6().dst();
      for (const auto& p : rib6) {
        consider(route::mask128(dst.hi64(), dst.lo64(), p.length) ==
                     route::mask128(p.addr.hi64(), p.addr.lo64(), p.length),
                 p.length, p.next_hop);
      }
    }
    ports.push_back(port);
  }
  return ports;
}

crypto::SecurityAssociation corpus_ipsec_sa() {
  return crypto::SecurityAssociation::make_test_sa(0x5151, net::Ipv4Addr(172, 16, 0, 1),
                                                   net::Ipv4Addr(172, 16, 0, 2));
}

}  // namespace ps::cap
