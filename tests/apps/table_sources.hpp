// Both table sources a forwarding app accepts: a fixed table and a live
// FIB holding the same routes. Tests that must hold for either run their
// body once per source.
#pragma once

#include <gtest/gtest.h>

#include <span>

#include "route/fib_manager.hpp"

namespace ps::apps {

/// Build `rib` as a fixed Table and as a committed Fib, then call
/// `body(app, table)` with an App over each; `table` is the lookup oracle.
template <typename App, typename Table, typename Fib, typename Prefix, typename Body>
void for_each_table_source(std::span<const Prefix> rib, Body body) {
  Table table;
  table.build(rib);
  {
    SCOPED_TRACE("fixed table");
    App app(table);
    body(app, table);
  }
  Fib fib;
  for (const auto& p : rib) fib.announce(p);
  fib.commit();
  {
    SCOPED_TRACE("live FIB");
    App app(fib);
    body(app, table);
  }
}

}  // namespace ps::apps
