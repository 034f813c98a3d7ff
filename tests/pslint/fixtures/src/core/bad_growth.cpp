// Fixture for the steady-state-growth rule: growth inside a
// steady-state function fires unless the file reserves the container or
// the site carries an allow comment; setup functions never fire.
#include <vector>

struct Worker {
  std::vector<int> staging;
  std::vector<int> pool;
  std::vector<int> scratch;
};

void start(Worker& w) {
  w.pool.reserve(64);       // warms `pool`: growth below is amortised away
  w.staging.push_back(0);   // setup code may grow anything
}

void worker_loop(Worker& w) {
  w.staging.push_back(1);   // FIRES: never reserved in this file
  w.pool.push_back(2);      // ok: reserved in start()
  // pslint: allow(steady-state-growth) grow-only high-water mark
  w.scratch.resize(128);    // ok: allow comment
}

void finish_job(Worker& w) {
  w.scratch.emplace_back(3);  // FIRES: the allow above is site-specific
}

void run_post_shade(Worker& w) {
  w.staging.push_back(4);  // FIRES: stage functions are steady state too
}
