// perfbench: the repository's benchmark harness (see perfbench/README.md).
//
// One binary, three modes, each a separate process so that set-up time,
// peak RSS and the model clock never see each other's work:
//   --mode wall   closed-loop drive of the threaded core::Router
//   --mode setup  set-up only (the extra set-up samples behind setup_s)
//   --mode model  core::ModelDriver on the paper's server (model clock)
// Every mode prints one JSON object on its last stdout line; run.py merges
// them into the benchmark's result line.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/dynamic_ipv4.hpp"
#include "apps/ipsec_gateway.hpp"
#include "apps/ipv4_forward.hpp"
#include "core/router.hpp"
#include "crypto/esp.hpp"
#include "gen/traffic.hpp"
#include "route/fib_manager.hpp"
#include "route/rib_gen.hpp"

namespace perfbench {

using namespace ps;
class SpanLog;
using Clock = std::chrono::steady_clock;

enum class Kind { kIpv4_64b, kIpsecImix, kIpv4ChurnZipf };

struct Options {
  std::string mode = "wall";
  Kind kind = Kind::kIpv4_64b;
  std::string workload = "ipv4_64b";
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Closed-loop bound on frames offered but neither transmitted nor
  /// dropped.
  u64 window = 8192;
};

/// Frames per closed-loop offer call.
inline constexpr u32 kOfferBatch = 64;
/// Churn: one update batch of kChurnOps ops every kChurnEvery offered frames.
inline constexpr u32 kChurnOps = 64;
inline constexpr u64 kChurnEvery = 16384;
inline constexpr std::size_t kChurnPrefixes = 1'000'000;
inline constexpr u32 kChurnFlows = 1u << 20;
inline constexpr u16 kNextHops = 8;
/// The IPv4 route table is a fixed fixture (the paper uses one RouteViews
/// snapshot); --seed drives traffic, destination pools and churn.
inline constexpr u64 kRibSeed = 2010;

/// Reference next hop of `dst` in churn generation `batch` (0 = base RIB,
/// k = after k update batches): an independent longest-prefix match over
/// the simulated RIB, used by the egress checks and the route-stability
/// set-up check.
class ChurnReference {
 public:
  ChurnReference(std::span<const route::Ipv4Prefix> base,
                 std::span<const route::Ipv4ChurnOp> ops, u32 ops_per_batch);
  route::NextHop lookup(u32 dst, u64 batch) const;

 private:
  static constexpr u32 kNone = ~0u;
  struct Route {
    route::NextHop base = route::kNoRoute;  // kNoRoute = not in the base RIB
    u32 first = kNone;                      // first change, in changes_
  };
  struct Change {
    u32 batch;
    route::NextHop nh;  // kNoRoute = withdrawn
    u32 next;
  };

  std::unordered_map<u64, Route> routes_;
  std::vector<Change> changes_;
  u64 lengths_ = 0;  // bit l set: some prefix of length l exists
};

/// Everything a workload feeds the program: the route state, the app, and
/// the generator configuration. Built from the seed alone.
struct Workload {
  Kind kind = Kind::kIpv4_64b;

  std::vector<route::Ipv4Prefix> rib;
  std::unique_ptr<route::Ipv4Table> table;  // ipv4_64b
  std::unique_ptr<route::Ipv4Fib> fib;      // ipv4_churn_zipf
  std::vector<route::Ipv4ChurnOp> churn;    // ipv4_churn_zipf
  std::size_t churn_next = 0;
  u64 base_generation = 0;                  // fib generation before any churn
  crypto::SaDatabase sadb;                  // ipsec_imix
  crypto::SecurityAssociation* sa = nullptr;

  /// Churn: independent reference for the egress checks (wall mode only).
  std::unique_ptr<ChurnReference> reference;
  /// Set-up seconds spent in the harness's own checks, which setup_s omits.
  double check_s = 0.0;

  gen::TrafficConfig traffic;
  std::unique_ptr<core::Shader> app;

  core::RouterConfig router_config() const;
  /// Apply the next kChurnOps ops of the stream, commit, and sync the
  /// app's device tables, inside route.churn_batch / route.commit /
  /// apps.sync spans when `log` is non-null.
  route::CommitResult apply_churn_batch(SpanLog* log);
  apps::DynamicIpv4ForwardApp* dynamic_app() const;
};

Kind parse_kind(const std::string& name);
/// Build the workload's inputs. `churn_batches` sizes the pre-generated
/// update stream (ignored by the other workloads). With `verify`, also
/// runs the set-up checks and keeps the churn reference; throws when a
/// check fails.
std::unique_ptr<Workload> make_workload(Kind kind, u64 seed, std::size_t churn_batches,
                                        bool verify);

/// Ordered name -> value map plus units, printed as JSON.
struct Report {
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics;
  std::map<std::string, std::string> meta;
  std::vector<std::string> failures;  // failed output checks (empty = correct)
  u64 attempted = 0;
  u64 failed = 0;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& what) { failures.push_back(what); }
  void print() const;
};

/// Seconds since process start (main() entry), the set-up clock.
double since_start_s();

void run_wall(const Options& opt, Report& out);
void run_setup_only(const Options& opt, Report& out);
void run_model(const Options& opt, Report& out);

}  // namespace perfbench
