// IPsec gateway shader: the GPU-offloaded AES/SHA1 output must be
// bit-identical to the CPU path and decryptable by a standard receiver.
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "apps/ipsec_gateway.hpp"
#include "gen/traffic.hpp"

namespace ps::apps {
namespace {

struct GpuHarness {
  pcie::Topology topo = pcie::Topology::paper_server();
  gpu::GpuDevice device{0, topo, std::make_shared<gpu::SimtExecutor>(2u)};
  core::GpuContext ctx{&device, {gpu::kDefaultStream}};
};

crypto::SecurityAssociation gateway_sa() {
  return crypto::SecurityAssociation::make_test_sa(0xabcd, net::Ipv4Addr(172, 16, 0, 1),
                                                   net::Ipv4Addr(172, 16, 0, 2));
}

// The app keeps a reference to its SA, so a temporary must not bind.
static_assert(std::is_constructible_v<IpsecGatewayApp, const crypto::SecurityAssociation&>);
static_assert(!std::is_constructible_v<IpsecGatewayApp, crypto::SecurityAssociation&&>);
static_assert(!std::is_constructible_v<IpsecGatewayApp, const crypto::SecurityAssociation&&>);

TEST(IpsecGatewayApp, GpuOutputDecapsulatesCleanly) {
  const auto sa = gateway_sa();
  IpsecGatewayApp app(sa);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  gen::TrafficGen traffic({.frame_size = 200, .seed = 30});
  std::vector<net::FrameBuffer> originals;
  core::ShaderJob job(32);
  for (int i = 0; i < 32; ++i) {
    originals.push_back(traffic.next_frame());
    job.chunk.append(originals.back());
  }
  job.chunk.in_port = 0;

  app.pre_shade(job);
  core::ShaderJob* jobs[] = {&job};
  app.shade(gpu.ctx, {jobs, 1});
  app.post_shade(job);

  ASSERT_EQ(job.chunk.count(), 32u);
  auto rx_sa = gateway_sa();  // fresh replay window, same keys
  for (u32 i = 0; i < 32; ++i) {
    EXPECT_EQ(job.chunk.verdict(i), iengine::PacketVerdict::kForward);
    EXPECT_EQ(job.chunk.out_port(i), 1);  // ingress 0 -> egress 1

    std::vector<u8> inner;
    auto pkt = job.chunk.packet(i);
    ASSERT_EQ(crypto::esp_decapsulate(rx_sa, pkt, inner), crypto::EspError::kOk) << i;
    // Recovered inner packet == original past L2.
    EXPECT_TRUE(std::equal(inner.begin() + sizeof(net::EthernetHeader), inner.end(),
                           originals[i].begin() + sizeof(net::EthernetHeader)))
        << i;
  }
}

TEST(IpsecGatewayApp, GpuBytesMatchCpuBytes) {
  // The two paths share sequence-number allocation order, so with separate
  // app instances and identical input they must emit identical frames.
  const auto sa = gateway_sa();
  gen::TrafficGen traffic({.frame_size = 128, .seed = 31});
  std::vector<net::FrameBuffer> frames;
  for (int i = 0; i < 16; ++i) frames.push_back(traffic.next_frame());

  IpsecGatewayApp gpu_app(sa);
  GpuHarness gpu;
  gpu_app.bind_gpu(gpu.device);
  core::ShaderJob gpu_job(16);
  for (const auto& f : frames) gpu_job.chunk.append(f);
  gpu_job.chunk.in_port = 0;
  gpu_app.pre_shade(gpu_job);
  core::ShaderJob* jobs[] = {&gpu_job};
  gpu_app.shade(gpu.ctx, {jobs, 1});
  gpu_app.post_shade(gpu_job);

  IpsecGatewayApp cpu_app(sa);
  core::ShaderJob cpu_job(16);
  for (const auto& f : frames) cpu_job.chunk.append(f);
  cpu_job.chunk.in_port = 0;
  cpu_app.process_cpu(cpu_job.chunk);

  ASSERT_EQ(gpu_job.chunk.count(), cpu_job.chunk.count());
  for (u32 i = 0; i < cpu_job.chunk.count(); ++i) {
    const auto a = gpu_job.chunk.packet(i);
    const auto b = cpu_job.chunk.packet(i);
    ASSERT_EQ(a.size(), b.size()) << i;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "packet " << i;
  }
}

TEST(IpsecGatewayApp, OutputSizeMatchesEspMath) {
  const auto sa = gateway_sa();
  IpsecGatewayApp app(sa);
  for (const u32 size : {64u, 65u, 128u, 1514u}) {
    gen::TrafficGen traffic({.frame_size = size, .seed = 32});
    core::ShaderJob job(2);
    job.chunk.append(traffic.next_frame());
    job.chunk.in_port = 0;
    app.process_cpu(job.chunk);
    EXPECT_EQ(job.chunk.packet(0).size(), crypto::esp_output_frame_size(size)) << size;
  }
}

TEST(IpsecGatewayApp, SequenceNumbersUniqueAcrossChunks) {
  const auto sa = gateway_sa();
  IpsecGatewayApp app(sa);
  gen::TrafficGen traffic({.frame_size = 64, .seed = 33});

  std::set<u32> seqs;
  for (int round = 0; round < 4; ++round) {
    core::ShaderJob job(8);
    for (int i = 0; i < 8; ++i) job.chunk.append(traffic.next_frame());
    job.chunk.in_port = 0;
    app.process_cpu(job.chunk);
    for (u32 i = 0; i < job.chunk.count(); ++i) {
      const auto& esp = *reinterpret_cast<const net::EspHeader*>(job.chunk.packet(i).data() + 34);
      EXPECT_TRUE(seqs.insert(esp.sequence()).second);
    }
  }
  EXPECT_EQ(seqs.size(), 32u);
}

TEST(IpsecGatewayApp, NonIpv4GoesToSlowPathUntouched) {
  const auto sa = gateway_sa();
  IpsecGatewayApp app(sa);

  net::FrameSpec spec;
  auto v6 = net::build_udp_ipv6(spec, net::Ipv6Addr::from_words(1, 2),
                                net::Ipv6Addr::from_words(3, 4));
  core::ShaderJob job(2);
  job.chunk.append(v6);
  job.chunk.in_port = 0;
  app.process_cpu(job.chunk);
  EXPECT_EQ(job.chunk.verdict(0), iengine::PacketVerdict::kSlowPath);
  EXPECT_EQ(job.chunk.packet(0).size(), v6.size());
}

TEST(IpsecGatewayApp, MultiJobShadeKeepsJobsSeparate) {
  const auto sa = gateway_sa();
  IpsecGatewayApp app(sa);
  GpuHarness gpu;
  app.bind_gpu(gpu.device);

  gen::TrafficGen traffic({.frame_size = 300, .seed = 34});
  std::vector<std::unique_ptr<core::ShaderJob>> jobs;
  std::vector<core::ShaderJob*> ptrs;
  std::vector<net::FrameBuffer> originals;
  for (int j = 0; j < 3; ++j) {
    jobs.push_back(std::make_unique<core::ShaderJob>(8));
    jobs.back()->chunk.in_port = 0;
    for (int i = 0; i < 8; ++i) {
      originals.push_back(traffic.next_frame());
      jobs.back()->chunk.append(originals.back());
    }
    app.pre_shade(*jobs.back());
    ptrs.push_back(jobs.back().get());
  }
  app.shade(gpu.ctx, {ptrs.data(), ptrs.size()});

  auto rx_sa = gateway_sa();
  std::size_t orig = 0;
  for (auto& job : jobs) {
    app.post_shade(*job);
    for (u32 i = 0; i < job->chunk.count(); ++i, ++orig) {
      std::vector<u8> inner;
      ASSERT_EQ(crypto::esp_decapsulate(rx_sa, job->chunk.packet(i), inner),
                crypto::EspError::kOk);
      EXPECT_TRUE(std::equal(inner.begin() + 14, inner.end(), originals[orig].begin() + 14));
    }
  }
}

}  // namespace
}  // namespace ps::apps
