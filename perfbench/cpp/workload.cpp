// Workload inputs: route tables, churn stream, destination pools, traffic
// shape and app, all derived from the seed.
#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "harness.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

u64 prefix_key(u32 network, u8 length) { return (u64{network} << 8) | length; }

u32 mask_of(u8 length) {
  return length == 0 ? 0 : static_cast<u32>(~((u64{1} << (32 - length)) - 1));
}

/// Base prefixes the churn stream never withdraws: destinations under them
/// keep a covering route through the whole stream.
std::vector<route::Ipv4Prefix> stable_prefixes(std::span<const route::Ipv4Prefix> base,
                                               std::span<const route::Ipv4ChurnOp> ops) {
  std::unordered_set<u64> withdrawn;
  for (const auto& op : ops) {
    if (!op.announce) withdrawn.insert(prefix_key(op.prefix.network(), op.prefix.length));
  }
  std::vector<route::Ipv4Prefix> out;
  out.reserve(base.size());
  for (const auto& p : base) {
    if (!withdrawn.contains(prefix_key(p.network(), p.length))) out.push_back(p);
  }
  return out;
}

/// The set-up check: every pool destination has a route in every churn
/// generation. The base table must cover the whole pool; after that only a
/// withdrawal can take a route away, so it suffices to look up, after each
/// batch, the pool destinations its withdrawals cover.
void check_pool_keeps_routes(const route::Ipv4Table& base_table, const ChurnReference& ref,
                             std::span<const route::Ipv4ChurnOp> ops, std::vector<u32> pool) {
  std::vector<route::NextHop> nh(pool.size());
  base_table.lookup_batch(pool.data(), nh.data(), pool.size());
  if (std::find(nh.begin(), nh.end(), route::kNoRoute) != nh.end()) {
    throw std::runtime_error("set-up check: churn pool destination without a base route");
  }
  std::sort(pool.begin(), pool.end());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].announce) continue;
    const u64 batch = i / kChurnOps + 1;
    const u32 lo = ops[i].prefix.network();
    const u32 hi = lo | ~mask_of(ops[i].prefix.length);
    for (auto it = std::lower_bound(pool.begin(), pool.end(), lo);
         it != pool.end() && *it <= hi; ++it) {
      if (ref.lookup(*it, batch) == route::kNoRoute) {
        throw std::runtime_error("set-up check: a churn withdrawal leaves a pool destination "
                                 "without a route");
      }
    }
  }
}

}  // namespace

Kind parse_kind(const std::string& name) {
  if (name == "ipv4_64b") return Kind::kIpv4_64b;
  if (name == "ipsec_imix") return Kind::kIpsecImix;
  if (name == "ipv4_churn_zipf") return Kind::kIpv4ChurnZipf;
  throw std::invalid_argument("unknown workload: " + name);
}

core::RouterConfig Workload::router_config() const {
  core::RouterConfig cfg;
  cfg.use_gpu = true;
  // The paper gives IPsec the concurrent copy-and-execution streams (§5.4).
  cfg.num_streams = kind == Kind::kIpsecImix ? 2 : 1;
  cfg.supervise = true;
  return cfg;
}

apps::DynamicIpv4ForwardApp* Workload::dynamic_app() const {
  return kind == Kind::kIpv4ChurnZipf ? static_cast<apps::DynamicIpv4ForwardApp*>(app.get())
                                      : nullptr;
}

route::CommitResult Workload::apply_churn_batch(SpanLog* log) {
  if (churn_next + kChurnOps > churn.size()) {
    throw std::runtime_error("churn stream exhausted; size it from the run length");
  }
  SpanScope batch(log, SpanName::kChurnBatch, churn_next, kChurnOps);
  route::CommitResult result;
  {
    SpanScope commit(log, SpanName::kCommit, churn_next, kChurnOps);
    for (u32 i = 0; i < kChurnOps; ++i) {
      const auto& op = churn[churn_next++];
      if (op.announce) {
        fib->announce(op.prefix);
      } else if (!fib->withdraw(op.prefix)) {
        throw std::runtime_error("churn withdrawal of an absent prefix");
      }
    }
    result = fib->try_commit(nullptr);
  }
  SpanScope sync(log, SpanName::kSync, churn_next, kChurnOps);
  dynamic_app()->sync();
  return result;
}

std::unique_ptr<Workload> make_workload(Kind kind, u64 seed, std::size_t churn_batches,
                                        bool verify) {
  auto w = std::make_unique<Workload>();
  w->kind = kind;
  w->traffic.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  switch (kind) {
    case Kind::kIpv4_64b: {
      w->rib = route::generate_ipv4_rib({.prefix_count = route::kPaperIpv4PrefixCount,
                                         .num_next_hops = kNextHops,
                                         .seed = kRibSeed});
      w->table = std::make_unique<route::Ipv4Table>();
      w->table->build(w->rib);
      w->traffic.frame_size = 64;
      w->traffic.ipv4_dst_pool = route::sample_covered_ipv4(w->rib, 1u << 20, seed + 77);
      w->app = std::make_unique<apps::Ipv4ForwardApp>(*w->table);
      break;
    }
    case Kind::kIpsecImix: {
      w->sa = &w->sadb.add(crypto::SecurityAssociation::make_test_sa(
          0x1111, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2), seed));
      w->traffic.size_dist = gen::SizeDist::kImix;
      w->app = std::make_unique<apps::IpsecGatewayApp>(*w->sa);
      break;
    }
    case Kind::kIpv4ChurnZipf: {
      w->rib = route::generate_ipv4_rib(
          {.prefix_count = kChurnPrefixes, .num_next_hops = kNextHops, .seed = kRibSeed});
      w->fib = std::make_unique<route::Ipv4Fib>();
      for (const auto& p : w->rib) w->fib->announce(p);
      w->base_generation = w->fib->commit();
      w->churn = route::generate_ipv4_churn(w->rib, churn_batches * kChurnOps, kNextHops,
                                            seed + 1000);
      auto pool = route::sample_covered_ipv4(stable_prefixes(w->rib, w->churn), kChurnFlows,
                                             seed + 77);
      if (verify) {
        const auto t0 = Clock::now();
        w->reference = std::make_unique<ChurnReference>(w->rib, w->churn, kChurnOps);
        check_pool_keeps_routes(*w->fib->read(), *w->reference, w->churn, pool);
        w->check_s = std::chrono::duration<double>(Clock::now() - t0).count();
      }
      w->traffic.frame_size = 64;
      w->traffic.flow_count = kChurnFlows;
      w->traffic.flow_dist = gen::FlowDist::kZipf;
      w->traffic.zipf_exponent = 1.0;
      w->traffic.ipv4_dst_pool = std::move(pool);
      w->app = std::make_unique<apps::DynamicIpv4ForwardApp>(*w->fib);
      break;
    }
  }
  return w;
}

ChurnReference::ChurnReference(std::span<const route::Ipv4Prefix> base,
                               std::span<const route::Ipv4ChurnOp> ops, u32 ops_per_batch) {
  routes_.reserve(base.size() + ops.size());
  for (const auto& p : base) {
    routes_[prefix_key(p.network(), p.length)].base = p.next_hop;
    lengths_ |= u64{1} << p.length;
  }
  // Each prefix's changes, in batch order, as a linked list through
  // changes_ (the last op of a batch wins).
  std::unordered_map<u64, u32> tail;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& op = ops[i];
    const u64 key = prefix_key(op.prefix.network(), op.prefix.length);
    const u32 batch = static_cast<u32>(i / ops_per_batch + 1);
    const route::NextHop nh = op.announce ? op.prefix.next_hop : route::kNoRoute;
    Route& r = routes_[key];
    lengths_ |= u64{1} << op.prefix.length;
    if (r.first != kNone && changes_[tail[key]].batch == batch) {
      changes_[tail[key]].nh = nh;
      continue;
    }
    const auto index = static_cast<u32>(changes_.size());
    changes_.push_back({batch, nh, kNone});
    if (r.first == kNone) {
      r.first = index;
    } else {
      changes_[tail[key]].next = index;
    }
    tail[key] = index;
  }
}

route::NextHop ChurnReference::lookup(u32 dst, u64 batch) const {
  for (int len = 32; len >= 0; --len) {
    if ((lengths_ >> len & 1) == 0) continue;
    const u8 l = static_cast<u8>(len);
    const auto it = routes_.find(prefix_key(dst & mask_of(l), l));
    if (it == routes_.end()) continue;
    route::NextHop nh = it->second.base;
    for (u32 c = it->second.first; c != kNone && changes_[c].batch <= batch; c = changes_[c].next) {
      nh = changes_[c].nh;
    }
    if (nh != route::kNoRoute) return nh;
  }
  return route::kNoRoute;
}

}  // namespace perfbench
