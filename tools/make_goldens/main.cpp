// Golden corpus regenerator: synthesizes each corpus input capture from
// its frozen seeds, routes it through the full router, and writes the
// canonical expected pcap next to it. Run via scripts/regen_goldens.sh,
// which also refreshes the checksum manifest. The corpus definitions live
// in src/cap/golden.* so this tool and the expect tests can never drift.
#include <cstdio>
#include <string>

#include "cap/golden.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <data-dir>\n", argv[0]);
    return 2;
  }
  const std::string data_dir = argv[1];

  for (const auto corpus : ps::cap::kAllCorpora) {
    const std::string input = ps::cap::corpus_input_path(data_dir, corpus);
    const std::string golden = ps::cap::corpus_golden_path(data_dir, corpus);

    ps::cap::write_corpus_input(corpus, input);
    const auto tx = ps::cap::route_corpus(corpus, input).frames;
    if (tx.size() != ps::cap::corpus_frame_count(corpus)) {
      std::fprintf(stderr, "%s: router forwarded %zu of %llu corpus frames; refusing to "
                           "bless a lossy golden\n",
                   ps::cap::corpus_name(corpus), tx.size(),
                   static_cast<unsigned long long>(ps::cap::corpus_frame_count(corpus)));
      return 1;
    }
    ps::cap::write_canonical_pcap(golden, tx);
    std::printf("%-10s %llu frames -> %s\n", ps::cap::corpus_name(corpus),
                static_cast<unsigned long long>(tx.size()), golden.c_str());
  }
  return 0;
}
