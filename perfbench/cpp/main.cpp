// perfbench entry point. Usage:
//   perfbench --mode wall|setup|model --workload <name> --seed <n>
//             [--seconds <s>] [--trace 0|1] [--window <frames>]
// Prints one JSON object on its last stdout line; exits non-zero when an
// output check fails or set-up is impossible.
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "harness.hpp"

namespace perfbench {

namespace {
const Clock::time_point g_start = Clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--mode") {
      opt.mode = val;
    } else if (key == "--workload") {
      opt.workload = val;
      opt.kind = parse_kind(val);
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--window") {
      opt.window = std::stoull(val);
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("options come in --key value pairs");
  if (!(opt.seconds >= 1.0 && opt.seconds <= 120.0)) {
    throw std::invalid_argument("--seconds must be in [1, 120]");
  }
  if (opt.window < kOfferBatch) throw std::invalid_argument("--window below one offer batch");
  return opt;
}
}  // namespace

double since_start_s() { return std::chrono::duration<double>(Clock::now() - g_start).count(); }

void Report::print() const {
  std::string s = "{\"correct\": ";
  s += failures.empty() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    s += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + num +
         ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  s += "}, \"meta\": {";
  first = true;
  for (const auto& [k, v] : meta) {
    s += (first ? "" : ", ") + std::string("\"") + k + "\": \"" + json_escape(v) + "\"";
    first = false;
  }
  s += "}, \"failures\": [";
  first = true;
  for (const auto& f : failures) {
    s += (first ? "\"" : ", \"") + json_escape(f) + "\"";
    first = false;
  }
  s += "]}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opt = parse(argc, argv);
    Report report;
    if (opt.mode == "wall") {
      run_wall(opt, report);
    } else if (opt.mode == "setup") {
      run_setup_only(opt, report);
    } else if (opt.mode == "model") {
      run_model(opt, report);
    } else {
      throw std::invalid_argument("unknown --mode " + opt.mode);
    }
    report.meta["mode"] = opt.mode;
    report.meta["workload"] = opt.workload;
    report.meta["seed"] = std::to_string(opt.seed);
    report.meta["compiler"] = PERFBENCH_COMPILER;
    report.meta["build_type"] = PERFBENCH_BUILD_TYPE;
    report.print();
    return report.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
