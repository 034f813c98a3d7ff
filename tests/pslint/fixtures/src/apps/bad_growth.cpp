// Fixture: container growth inside the application hooks. Growing the
// ShaderJob staging containers (reserved in core/shader.hpp) is fine;
// growing anything else per chunk is not.
#include <vector>

void App::pre_shade(ShaderJob& job) {
  for (unsigned i = 0; i < 4; ++i) {
    job.gpu_input.push_back(0);  // warmed by the ShaderJob constructor
    job.gpu_index.push_back(i);
    pending_.push_back(i);  // BAD: never reserved
  }
}

void App::shade_cpu(ShaderJob& job) {
  std::vector<int> scratch;
  scratch.emplace_back(static_cast<int>(job.gpu_index.size()));  // BAD
}

void App::bind_gpu(Device& device) {
  tables_.push_back(device.alloc(1));  // setup, not steady state: fine
}
