// Distributed model selection over sub-communicators: the world is divided
// into one sub-communicator per (C, sigma^2) grid cell, built the way the
// scheduler builds a job's gang (Comm::split_subset over a context every
// member derives from World::context_for_group, with no collective over the
// world). Each group trains its cell's model SPMD, assembles it from an
// Allgatherv of the block alphas and evaluates it distributed; each group's
// leader records the cell's result. The same pattern a production MPI
// deployment would use for Table III's hyper-parameter search.
//
//   ./distributed_grid_search [--ranks 8] [--n 800]
#include <cstdio>
#include <vector>

#include "core/distributed_predict.hpp"
#include "core/distributed_solver.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "mpisim/spmd.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const svmutil::CliFlags flags(argc, argv, {"ranks", "n"});
  const int ranks = static_cast<int>(flags.get_int("ranks", 8));
  const std::size_t n = flags.get_int("n", 800);

  const svmdata::Dataset train = svmdata::synthetic::two_rings(
      {.n = n, .d = 3, .inner_radius = 1.0, .gap = 1.2, .thickness = 0.25, .seed = 4});
  const svmdata::Dataset validate = svmdata::synthetic::two_rings(
      {.n = n / 2, .d = 3, .inner_radius = 1.0, .gap = 1.2, .thickness = 0.25, .seed = 4,
       .draw = 1});

  struct Cell {
    double C;
    double sigma_sq;
  };
  const std::vector<Cell> grid{{1.0, 0.5}, {10.0, 0.5}, {1.0, 64.0}, {10.0, 64.0}};

  struct CellResult {
    double accuracy;
    std::uint64_t iterations;
  };
  std::vector<CellResult> results(grid.size());

  svmmpi::run_spmd(ranks, [&](svmmpi::Comm& world) {
    // One sub-communicator per grid cell, round-robin over world ranks.
    const int cells = static_cast<int>(grid.size());
    const int cell_id = world.rank() % cells;
    std::vector<int> members;
    for (int r = cell_id; r < world.size(); r += cells) members.push_back(r);
    svmmpi::Comm group =
        world.split_subset(members, world.world().context_for_group(members));

    svmcore::SolverParams params;
    params.C = grid[cell_id].C;
    params.eps = 1e-3;
    params.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(grid[cell_id].sigma_sq);
    svmcore::DistributedConfig config;
    config.params = params;
    config.heuristic = svmcore::Heuristic::best();

    svmcore::DistributedSolver solver(group, train, config);
    const svmcore::RankResult mine = solver.solve();

    // Group leader rebuilds the model from the gathered block alphas, then
    // everyone in the group evaluates it distributed.
    const auto blocks = group.allgatherv(std::span<const double>(mine.alpha));
    std::vector<double> alpha;
    for (const auto& block : blocks) alpha.insert(alpha.end(), block.begin(), block.end());
    const svmcore::SvmModel model =
        svmcore::build_model(train, alpha, mine.beta, params.kernel);
    const double accuracy = svmcore::distributed_accuracy(group, model, validate);

    if (group.rank() == 0)
      results[cell_id] = CellResult{accuracy, mine.stats.iterations};
    world.barrier();  // results[] fully written before the SPMD region ends
  });

  std::printf("distributed grid search: %d ranks over %zu cells, two-rings n=%zu\n\n", ranks,
              grid.size(), train.size());
  svmutil::TextTable table({"C", "sigma^2", "val accuracy %", "iterations"});
  std::size_t best = 0;
  for (std::size_t c = 0; c < grid.size(); ++c) {
    if (results[c].accuracy > results[best].accuracy) best = c;
    table.add_row({svmutil::TextTable::num(grid[c].C, 1),
                   svmutil::TextTable::num(grid[c].sigma_sq, 1),
                   svmutil::TextTable::num(100.0 * results[c].accuracy, 2),
                   svmutil::TextTable::integer(results[c].iterations)});
  }
  table.print();
  std::printf("\nselected: C=%.1f sigma^2=%.1f\n", grid[best].C, grid[best].sigma_sq);
  return 0;
}
