// Golden end-to-end gate (DESIGN.md §18): replay each committed corpus
// capture through the full router and byte-compare TX against the
// committed expected pcap. Any mismatch is a real behaviour change —
// either a regression, or an intentional change that must be re-blessed
// with scripts/regen_goldens.sh (which also refreshes the checksum
// manifest). The goldens come from the deterministic ModelDriver; the
// ThreadedRouterGolden tests replay the same corpus through the threaded
// core::Router, which runs the same core/stages functions. These tests
// carry the ctest label "replay" (the CI replay-gate job) on top of tier-1.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cap/expect.hpp"
#include "cap/golden.hpp"
#include "crypto/esp.hpp"
#include "gen/pcap.hpp"

#ifndef PS_TEST_DATA_DIR
#define PS_TEST_DATA_DIR "tests/data"
#endif

namespace ps::cap {
namespace {

constexpr char kRegenHint[] =
    "if this change is intentional, regenerate the corpus with "
    "scripts/regen_goldens.sh and commit the new pcaps + manifest";

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Diff pcaps land under the ctest working directory so the nightly job
// can upload them as artifacts on failure.
std::string diff_path_for(Corpus corpus) {
  std::filesystem::create_directories("expect_diffs");
  return std::string("expect_diffs/") + corpus_name(corpus) + ".actual.pcap";
}

void expect_corpus_matches_golden(Corpus corpus, Scheduler scheduler = Scheduler::kModel) {
  const std::string input = corpus_input_path(PS_TEST_DATA_DIR, corpus);
  const std::string golden = corpus_golden_path(PS_TEST_DATA_DIR, corpus);
  ASSERT_TRUE(std::filesystem::exists(input))
      << "missing corpus input " << input << "; " << kRegenHint;
  ASSERT_TRUE(std::filesystem::exists(golden))
      << "missing golden capture " << golden << "; " << kRegenHint;

  const FrameList actual = route_corpus(corpus, input, scheduler);
  EXPECT_EQ(actual.size(), corpus_frame_count(corpus))
      << corpus_name(corpus) << ": router did not forward every corpus frame";

  const auto result = expect_frames(golden, actual, diff_path_for(corpus));
  EXPECT_TRUE(result.match) << corpus_name(corpus) << ": " << result.message << "; "
                            << kRegenHint;
}

TEST(ExpectGolden, Ipv4ImixReplaysByteIdentical) {
  expect_corpus_matches_golden(Corpus::kIpv4Imix);
}

TEST(ExpectGolden, Ipv6ReplaysByteIdentical) {
  expect_corpus_matches_golden(Corpus::kIpv6);
}

TEST(ExpectGolden, IpsecReplaysByteIdentical) {
  expect_corpus_matches_golden(Corpus::kIpsec);
}

TEST(ThreadedRouterGolden, Ipv4ImixReplaysByteIdentical) {
  expect_corpus_matches_golden(Corpus::kIpv4Imix, Scheduler::kThreaded);
}

TEST(ThreadedRouterGolden, Ipv6ReplaysByteIdentical) {
  expect_corpus_matches_golden(Corpus::kIpv6, Scheduler::kThreaded);
}

/// Decapsulate every frame with the corpus SA (ICV verified) and return
/// the inner frames in canonical order.
FrameList decapsulated(const FrameList& frames) {
  FrameList inner;
  auto sa = corpus_ipsec_sa();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // Canonical order is not sequence order: reset the anti-replay window.
    sa.replay_high = 0;
    sa.replay_window = 0;
    std::vector<u8> out;
    EXPECT_EQ(crypto::esp_decapsulate(sa, frames[i], out), crypto::EspError::kOk) << "frame " << i;
    inner.push_back(std::move(out));
  }
  return canonicalize(std::move(inner));
}

TEST(ThreadedRouterGolden, IpsecCarriesTheGoldenInnerFrames) {
  // ESP sequence numbers (and so IVs and ICVs) follow the order in which
  // the workers meet the packets, which threads make nondeterministic; the
  // inner packets they carry are not.
  const std::string input = corpus_input_path(PS_TEST_DATA_DIR, Corpus::kIpsec);
  const FrameList expected = gen::read_pcap(corpus_golden_path(PS_TEST_DATA_DIR, Corpus::kIpsec));
  ASSERT_EQ(expected.size(), corpus_frame_count(Corpus::kIpsec)) << kRegenHint;

  const FrameList actual = route_corpus(Corpus::kIpsec, input, Scheduler::kThreaded);
  ASSERT_EQ(actual.size(), expected.size());
  const FrameList actual_inner = decapsulated(actual);
  const FrameList expected_inner = decapsulated(expected);
  EXPECT_TRUE(actual_inner == expected_inner)
      << "threaded IPsec TX decapsulates to different inner frames than the golden";
}

TEST(ExpectGolden, CorpusInputsRegenerateByteIdentical) {
  // The committed inputs must be exactly what write_corpus_input produces
  // today — synthetic clock, frozen seeds. Drift here means a generator
  // change silently rewrote the corpus semantics.
  for (const Corpus corpus : kAllCorpora) {
    const std::string committed = corpus_input_path(PS_TEST_DATA_DIR, corpus);
    ASSERT_TRUE(std::filesystem::exists(committed))
        << "missing corpus input " << committed << "; " << kRegenHint;
    const auto regen = temp_path("regen_in.pcap");
    write_corpus_input(corpus, regen);
    EXPECT_EQ(slurp(regen), slurp(committed))
        << corpus_name(corpus) << " input capture is no longer reproducible; " << kRegenHint;
    std::remove(regen.c_str());
  }
}

TEST(ExpectFrames, CanonicalizeSortsLexicographically) {
  FrameList frames = {{0x02, 0x01}, {0x01, 0xff}, {0x01}};
  const auto canon = canonicalize(frames);
  EXPECT_EQ(canon[0], (std::vector<u8>{0x01}));
  EXPECT_EQ(canon[1], (std::vector<u8>{0x01, 0xff}));
  EXPECT_EQ(canon[2], (std::vector<u8>{0x02, 0x01}));
}

TEST(ExpectFrames, MatchIsOrderInsensitive) {
  // The router guarantees per-flow ordering, not the global interleave:
  // a permuted TX order still matches the golden multiset.
  const auto golden = temp_path("order_golden.pcap");
  FrameList frames = {{0xaa, 0xaa}, {0xbb, 0xbb}, {0xcc, 0xcc}};
  write_canonical_pcap(golden, canonicalize(frames));

  FrameList permuted = {frames[2], frames[0], frames[1]};
  const auto result = expect_frames(golden, permuted);
  EXPECT_TRUE(result.match) << result.message;
  EXPECT_EQ(result.expected_count, 3u);
  std::remove(golden.c_str());
}

TEST(ExpectFrames, MismatchReportsAndWritesDiffPcap) {
  const auto golden = temp_path("diff_golden.pcap");
  const auto diff = temp_path("diff_actual.pcap");
  write_canonical_pcap(golden, {{0x11, 0x11}, {0x22, 0x22}});

  const auto result = expect_frames(golden, {{0x11, 0x11}, {0x33, 0x33}}, diff);
  EXPECT_FALSE(result.match);
  EXPECT_EQ(result.first_mismatch, 1);
  EXPECT_NE(result.message.find("first mismatch"), std::string::npos);
  // The failing actual frames were preserved for artifact upload.
  const auto written = gen::read_pcap(diff);
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(written[1], (std::vector<u8>{0x33, 0x33}));
  std::remove(golden.c_str());
  std::remove(diff.c_str());
}

TEST(ExpectFrames, CountMismatchAndMissingGolden) {
  const auto golden = temp_path("count_golden.pcap");
  write_canonical_pcap(golden, {{0x44, 0x44}});
  const auto short_result = expect_frames(golden, {});
  EXPECT_FALSE(short_result.match);
  EXPECT_NE(short_result.message.find("count mismatch"), std::string::npos);
  std::remove(golden.c_str());

  const auto missing = expect_frames(temp_path("nonexistent_golden.pcap"), {{0x55}});
  EXPECT_FALSE(missing.match);
  EXPECT_NE(missing.message.find("empty or unreadable"), std::string::npos);
}

}  // namespace
}  // namespace ps::cap
