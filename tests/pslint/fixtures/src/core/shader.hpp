// Fixture: the ShaderJob constructor reserves its staging containers once,
// so the application hooks may grow them (see apps/bad_growth.cpp).
#include <vector>

struct ShaderJob {
  std::vector<unsigned char> gpu_input;
  std::vector<unsigned> gpu_index;

  ShaderJob() {
    gpu_input.reserve(1024);
    gpu_index.reserve(64);
  }
};
