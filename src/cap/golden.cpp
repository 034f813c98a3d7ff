#include "cap/golden.hpp"

#include <chrono>
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

/// Replay the input through the paper-server testbed with `app` on the
/// GPU path (inline SIMT execution) under `scheduler` and collect TX.
FrameList run_through(core::Shader& app, const std::string& input_path, Scheduler scheduler) {
  const core::RouterConfig config{.use_gpu = true};
  core::Testbed testbed(
      {.topo = pcie::Topology::paper_server(), .use_gpu = true, .ring_size = 4096}, config);
  FrameCollector sink;
  testbed.connect_sink(&sink);

  PcapReplayer replayer(input_path, {.rate = ReplayRate::kMax, .loop_count = 1});
  if (scheduler == Scheduler::kModel) {
    core::ModelDriver driver(testbed, &app, config);
    driver.run(static_cast<gen::FrameSource&>(replayer), ~u64{0});  // exits when the capture drains
    return canonicalize(sink.frames());
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
  return canonicalize(sink.frames());
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

FrameList route_corpus(Corpus corpus, const std::string& input_path, Scheduler scheduler) {
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

crypto::SecurityAssociation corpus_ipsec_sa() {
  return crypto::SecurityAssociation::make_test_sa(0x5151, net::Ipv4Addr(172, 16, 0, 1),
                                                   net::Ipv4Addr(172, 16, 0, 2));
}

}  // namespace ps::cap
