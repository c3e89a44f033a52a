// Ablation for §IV-A.2 ("Subsequent Shrinking Threshold Calculation"): the
// paper proposes using the Allreduce'd ACTIVE-SET SIZE as the gap between
// shrink passes ("the size of the working set gives sufficient opportunities
// for samples to be considered at least once") instead of the default choice
// of reusing the initial threshold. This bench compares the two policies
// across heuristics.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  const auto args = svmbench::parse_args(argc, argv);
  svmbench::print_banner(
      "Ablation - subsequent shrinking threshold (SIV-A.2)",
      "adaptive (active-set size) vs fixed (reuse initial threshold) shrink cadence");

  const auto& entry = svmdata::zoo_entry("forest");
  const auto train = svmdata::make_train(entry, 0.3 * args.scale);
  const auto params = svmbench::params_for(entry, args.eps);
  const int ranks = args.ranks.empty() ? 4 : args.ranks.front();

  std::printf("workload: forest-like n=%zu, p=%d\n\n", train.size(), ranks);

  svmutil::TextTable table({"heuristic", "policy", "shrink passes", "shrunk",
                            "work/rank (kevals)", "recon", "wall s", "train acc %"});
  for (const char* name : {"Multi5pc", "Multi10pc", "Single5pc"}) {
    for (const bool fixed : {false, true}) {
      svmcore::TrainOptions options;
      options.num_ranks = ranks;
      options.heuristic = svmcore::Heuristic::parse(name);
      options.heuristic.fixed_subsequent_threshold = fixed;
      const auto result = svmcore::train(train, params, options);
      // Shrink passes run in lockstep on every rank; read them from rank 0.
      const svmobs::MetricsRegistry& rank0 = result.rank_metrics[0];
      const auto passes = static_cast<long long>(rank0.value("solver.shrink_passes"));
      table.add_row({name, fixed ? "fixed" : "adaptive", svmutil::TextTable::integer(passes),
                     svmutil::TextTable::integer(result.samples_shrunk),
                     svmutil::TextTable::integer(
                         static_cast<long long>(result.max_rank_kernel_evaluations / 1000)),
                     svmutil::TextTable::integer(result.reconstructions),
                     svmutil::TextTable::num(result.wall_seconds, 2),
                     svmutil::TextTable::num(100.0 * result.model.accuracy(train), 2)});
    }
  }
  table.print();
  std::printf("\nboth policies must reach the same accuracy; the adaptive policy spaces its\n"
              "shrink passes by the shrinking active-set size, re-testing more often as the\n"
              "problem contracts (the paper's choice).\n");
  return 0;
}
