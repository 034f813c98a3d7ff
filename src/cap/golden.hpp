// Golden corpus definitions (DESIGN.md §18): the three committed captures
// the replay-gate CI job routes through the full router and compares
// against expected TX. Everything here is shared between the expect tests
// and the regeneration tool (tools/make_goldens), so the corpus can never
// drift between "what the test replays" and "what the tool regenerates".
#pragma once

#include <array>
#include <string>

#include "cap/expect.hpp"
#include "crypto/esp.hpp"

namespace ps::cap {

enum class Corpus : u8 {
  kIpv4Imix,  // IPv4 forwarding over a real-histogram RIB, IMIX sizes
  kIpv6,      // IPv6 forwarding (128-bit LPM), mixed flows
  kIpsec,     // ESP tunnel encapsulation (crypto determinism end to end)
};

inline constexpr std::array<Corpus, 3> kAllCorpora = {Corpus::kIpv4Imix, Corpus::kIpv6,
                                                      Corpus::kIpsec};

/// Stable corpus slug: "ipv4_imix", "ipv6", "ipsec".
const char* corpus_name(Corpus corpus);

/// Paths under the committed corpus directory (tests/data).
std::string corpus_input_path(const std::string& data_dir, Corpus corpus);
std::string corpus_golden_path(const std::string& data_dir, Corpus corpus);

/// Number of frames each corpus input carries.
u64 corpus_frame_count(Corpus corpus);

/// Synthesize the corpus input capture deterministically (seeded
/// generator, synthetic pcap clock) and write it to `path`. Regenerating
/// yields byte-identical files — the checksum manifest depends on it.
void write_corpus_input(Corpus corpus, const std::string& path);

/// Which scheduler drives the data path: the single-thread deterministic
/// core::ModelDriver (the goldens are generated with it) or the threaded
/// core::Router. Both run the same core/stages functions.
enum class Scheduler : u8 { kModel, kThreaded };

/// Replay the capture at `input_path` through the full router configured
/// for `corpus` (paper-server testbed, GPU path, inline SIMT execution)
/// and return the canonicalized TX frames. IPsec output under kThreaded
/// carries the same inner packets, but ESP sequence numbers follow the
/// order in which the workers meet the packets.
FrameList route_corpus(Corpus corpus, const std::string& input_path,
                       Scheduler scheduler = Scheduler::kModel);

/// The security association the IPsec corpus is encapsulated with (fresh
/// anti-replay window), for decapsulating its TX.
crypto::SecurityAssociation corpus_ipsec_sa();

}  // namespace ps::cap
