#include "core/distributed_predict.hpp"

#include <array>

#include "data/split.hpp"

namespace svmcore {

ConfusionMatrix distributed_evaluate(svmmpi::Comm& comm, const SvmModel& model,
                                     const svmdata::Dataset& dataset) {
  const svmdata::BlockRange range =
      svmdata::block_range(dataset.size(), comm.size(), comm.rank());

  // One engine per rank: each query row is one batched pass over the
  // support vectors (bit-identical to model.predict).
  svmkernel::KernelEngine engine = model.make_engine();
  ConfusionMatrix local;
  for (std::size_t i = range.begin; i < range.end; ++i) {
    const bool predicted_positive = model.decision_value(dataset.X.row(i), engine) >= 0.0;
    const bool actually_positive = dataset.y[i] > 0.0;
    if (predicted_positive && actually_positive)
      ++local.true_positive;
    else if (!predicted_positive && !actually_positive)
      ++local.true_negative;
    else if (predicted_positive)
      ++local.false_positive;
    else
      ++local.false_negative;
  }

  const std::array<std::int64_t, 4> mine{
      static_cast<std::int64_t>(local.true_positive),
      static_cast<std::int64_t>(local.true_negative),
      static_cast<std::int64_t>(local.false_positive),
      static_cast<std::int64_t>(local.false_negative)};
  const auto totals =
      comm.allreduce(std::span<const std::int64_t>(mine), svmmpi::ReduceOp::sum);

  ConfusionMatrix global;
  global.true_positive = static_cast<std::size_t>(totals[0]);
  global.true_negative = static_cast<std::size_t>(totals[1]);
  global.false_positive = static_cast<std::size_t>(totals[2]);
  global.false_negative = static_cast<std::size_t>(totals[3]);
  return global;
}

double distributed_accuracy(svmmpi::Comm& comm, const SvmModel& model,
                            const svmdata::Dataset& dataset) {
  return distributed_evaluate(comm, model, dataset).accuracy();
}

}  // namespace svmcore
