// Example: build the attack × defense resilience matrix.
//
// For every registered attack type (or a --attacks subset), sweep ROV
// deployment {off, partial, full} against RFC 9234 OTC deployment
// {off, partial, on}, one multi-attack campaign per grid point, and
// report median resilience (single-perspective and quorum) plus the raw
// capture rate per cell. The JSON artifact (--out) is what
// `mpinspect matrix` renders; the same table is printed here.
//
// Usage:
//   attack_matrix [--attacks <csv|all>] [--ases <n>] [--threads <n>]
//                 [--quorum <n>] [--out <matrix.json>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "analysis/attack_matrix.hpp"

using namespace marcopolo;

int main(int argc, char** argv) {
  analysis::AttackMatrixConfig config;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--attacks") == 0 && i + 1 < argc) {
      try {
        config.attacks = bgp::parse_attack_list(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << std::endl;
        return 2;
      }
    } else if (std::strcmp(argv[i], "--ases") == 0 && i + 1 < argc) {
      try {
        config.internet = topo::scaled_internet_config(std::atoi(argv[++i]));
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << std::endl;
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      config.threads = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--quorum") == 0 && i + 1 < argc) {
      config.quorum_required = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: attack_matrix [--attacks <csv|all>] [--ases <n>] "
                   "[--threads <n>] [--quorum <n>] [--out <matrix.json>]"
                << std::endl;
      return 2;
    }
  }

  std::printf("Building attack x defense matrix: %zu attack type(s), "
              "%zu x %zu defense grid...\n",
              config.attacks.empty() ? bgp::all_attack_types().size()
                                     : config.attacks.size(),
              config.rov_levels.size(), config.otc_levels.size());
  const analysis::AttackMatrixReport report =
      analysis::build_attack_matrix(config);
  std::fputs(analysis::render_attack_matrix(report).c_str(), stdout);

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << std::endl;
      return 2;
    }
    analysis::write_attack_matrix_json(out, report);
    std::printf("\nwrote %s (render with: mpinspect matrix %s)\n",
                out_path.c_str(), out_path.c_str());
  }
  return 0;
}
