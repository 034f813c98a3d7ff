// Former name of the live-FIB IPv4 app, kept only because the benchmark
// harness under perfbench/ still includes this header and uses the name;
// it goes when that harness moves to Ipv4ForwardApp.
#pragma once

#include "apps/ipv4_forward.hpp"

namespace ps::apps {

using DynamicIpv4ForwardApp = Ipv4ForwardApp;

}  // namespace ps::apps
