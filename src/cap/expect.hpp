// Expect side of ps::cap (DESIGN.md §18): golden end-to-end comparison.
// Replay an input capture through the full router, capture TX, and
// byte-compare against a committed expected pcap. Canonicalization rules:
// the router guarantees per-flow ordering, not the global interleave
// across ports/queues/batches — so both sides are compared as frame
// multisets in lexicographic byte order. Frame *bytes* are fully
// deterministic end to end (seeded generators, deterministic model
// pipeline), so no field scrubbing is needed; any byte difference is a
// real behaviour change.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace ps::cap {

using FrameList = std::vector<std::vector<u8>>;

/// The canonical order: byte-lexicographic.
bool frame_less(const std::vector<u8>& a, const std::vector<u8>& b);

/// Canonical golden form: frames sorted lexicographically by bytes.
FrameList canonicalize(FrameList frames);

struct ExpectResult {
  bool match = false;
  u64 expected_count = 0;
  u64 actual_count = 0;
  i64 first_mismatch = -1;  // canonical index of first differing frame
  std::string message;      // human-readable diff summary
};

/// Compare `actual` (canonicalized internally) against the golden capture
/// at `golden_path`. On mismatch, the canonicalized actual frames are
/// written to `diff_path` as a pcap (skipped when empty) so CI can upload
/// the failing capture as an artifact.
ExpectResult expect_frames(const std::string& golden_path, FrameList actual,
                           const std::string& diff_path = {});

/// Write `frames` (already canonical) as a deterministic pcap: synthetic
/// clock, one frame per microsecond — byte-identical run to run. Used by
/// both the golden regeneration tool and the failing-diff artifact path.
void write_canonical_pcap(const std::string& path, const FrameList& frames);

}  // namespace ps::cap
