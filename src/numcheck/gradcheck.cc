#include "numcheck/gradcheck.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "core/rng.h"
#include "core/seed.h"
#include "nn/attention.h"
#include "nn/module.h"

namespace lossyts::numcheck {

namespace {

using nn::MakeVar;
using nn::Tensor;
using nn::Var;

std::string FormatEntry(const char* label, size_t r, size_t c, double analytic,
                        double numeric) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "%s (%zu,%zu): analytic=%.9g numeric=%.9g", label, r, c,
                analytic, numeric);
  return buffer;
}

Tensor RandomTensor(Rng& rng, size_t rows, size_t cols, double lo = -1.0,
                    double hi = 1.0) {
  Tensor t(rows, cols);
  for (double& v : t.storage()) v = rng.Uniform(lo, hi);
  return t;
}

/// Pushes entries away from 0 so a central-difference step cannot cross a
/// kink (Relu's subgradient at 0 is not what finite differences measure).
void NudgeOffKink(Tensor& t, double margin = 0.05) {
  for (double& v : t.storage()) {
    if (std::abs(v) < margin) v = (v >= 0.0 ? margin : -margin);
  }
}

/// Scalarizes a tensor output with a fixed random weighting so every output
/// entry influences the loss with a distinct coefficient (a plain mean would
/// let transposition/permutation bugs cancel out).
Var WeightedMean(const Var& y, const Tensor& weights) {
  return nn::Mean(nn::Mul(y, MakeVar(weights)));
}

void AppendParameters(std::vector<NamedLeaf>& leaves,
                      const std::vector<Var>& parameters) {
  for (size_t i = 0; i < parameters.size(); ++i) {
    leaves.push_back({"param" + std::to_string(i), parameters[i]});
  }
}

CheckReport CheckUnary(uint64_t seed, Var (*op)(const Var&), bool kink) {
  Rng rng(seed);
  Tensor a = RandomTensor(rng, 3, 4);
  if (kink) NudgeOffKink(a);
  const Tensor w = RandomTensor(rng, 3, 4);
  Var leaf = MakeVar(a, true);
  return CheckGradients({{"input", leaf}}, [leaf, w, op] {
    return WeightedMean((*op)(leaf), w);
  });
}

CheckReport CheckBinary(uint64_t seed, Var (*op)(const Var&, const Var&)) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 4), true);
  Var b = MakeVar(RandomTensor(rng, 3, 4), true);
  const Tensor w = RandomTensor(rng, 3, 4);
  return CheckGradients({{"a", a}, {"b", b}},
                        [a, b, w, op] { return WeightedMean((*op)(a, b), w); });
}

CheckReport CheckMatMul(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 4), true);
  Var b = MakeVar(RandomTensor(rng, 4, 2), true);
  const Tensor w = RandomTensor(rng, 3, 2);
  return CheckGradients({{"a", a}, {"b", b}}, [a, b, w] {
    return WeightedMean(nn::MatMul(a, b), w);
  });
}

CheckReport CheckAddRowBroadcast(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 4), true);
  Var bias = MakeVar(RandomTensor(rng, 1, 4), true);
  const Tensor w = RandomTensor(rng, 3, 4);
  return CheckGradients({{"a", a}, {"bias", bias}}, [a, bias, w] {
    return WeightedMean(nn::AddRowBroadcast(a, bias), w);
  });
}

CheckReport CheckScale(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 4), true);
  const double s = rng.Uniform(-2.0, 2.0);
  const Tensor w = RandomTensor(rng, 3, 4);
  return CheckGradients(
      {{"input", a}}, [a, s, w] { return WeightedMean(nn::Scale(a, s), w); });
}

CheckReport CheckSoftmax(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 5, -2.0, 2.0), true);
  const Tensor w = RandomTensor(rng, 3, 5);
  return CheckGradients(
      {{"input", a}}, [a, w] { return WeightedMean(nn::Softmax(a), w); });
}

CheckReport CheckSoftmaxMasked(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 5, -2.0, 2.0), true);
  // Row 0 open, row 1 partially masked (at least one open slot), row 2 fully
  // masked to -inf — the fully-masked contract is uniform output with zero
  // gradient, and the oracle pins both the value's finiteness and the grad.
  auto mask = std::make_shared<Tensor>(3, 5, 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  const size_t open = rng.UniformInt(5);
  for (size_t c = 0; c < 5; ++c) {
    if (c != open && rng.Uniform() < 0.6) (*mask)(1, c) = -inf;
    (*mask)(2, c) = -inf;
  }
  const Tensor w = RandomTensor(rng, 3, 5);
  return CheckGradients({{"input", a}}, [a, mask, w] {
    return WeightedMean(nn::Softmax(a, mask.get()), w);
  });
}

CheckReport CheckLayerNorm(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 4), true);
  Var gain = MakeVar(RandomTensor(rng, 1, 4), true);
  Var bias = MakeVar(RandomTensor(rng, 1, 4), true);
  const Tensor w = RandomTensor(rng, 3, 4);
  return CheckGradients({{"input", a}, {"gain", gain}, {"bias", bias}},
                        [a, gain, bias, w] {
                          return WeightedMean(nn::LayerNorm(a, gain, bias), w);
                        });
}

CheckReport CheckDropout(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 4, 4), true);
  const Tensor w = RandomTensor(rng, 4, 4);
  const uint64_t mask_seed = MixSeed(seed, 7);
  // The mask must be identical on every forward evaluation, so the Rng is
  // re-seeded inside the closure instead of being advanced across calls.
  return CheckGradients({{"input", a}}, [a, w, mask_seed] {
    Rng mask_rng(mask_seed);
    return WeightedMean(nn::Dropout(a, 0.35, /*train=*/true, mask_rng), w);
  });
}

CheckReport CheckTranspose(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 4), true);
  const Tensor w = RandomTensor(rng, 4, 3);
  return CheckGradients(
      {{"input", a}}, [a, w] { return WeightedMean(nn::Transpose(a), w); });
}

CheckReport CheckSliceRows(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 5, 3), true);
  const Tensor w = RandomTensor(rng, 3, 3);
  return CheckGradients({{"input", a}}, [a, w] {
    return WeightedMean(nn::SliceRows(a, 1, 4), w);
  });
}

CheckReport CheckSliceCols(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 5), true);
  const Tensor w = RandomTensor(rng, 3, 3);
  return CheckGradients({{"input", a}}, [a, w] {
    return WeightedMean(nn::SliceCols(a, 1, 4), w);
  });
}

CheckReport CheckConcatRows(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 2, 3), true);
  Var b = MakeVar(RandomTensor(rng, 3, 3), true);
  const Tensor w = RandomTensor(rng, 5, 3);
  return CheckGradients({{"a", a}, {"b", b}}, [a, b, w] {
    return WeightedMean(nn::ConcatRows(a, b), w);
  });
}

CheckReport CheckConcatCols(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 2), true);
  Var b = MakeVar(RandomTensor(rng, 3, 3), true);
  const Tensor w = RandomTensor(rng, 3, 5);
  return CheckGradients({{"a", a}, {"b", b}}, [a, b, w] {
    return WeightedMean(nn::ConcatCols(a, b), w);
  });
}

CheckReport CheckMean(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 3, 4), true);
  return CheckGradients({{"input", a}}, [a] { return nn::Mean(a); });
}

CheckReport CheckMseLoss(uint64_t seed) {
  Rng rng(seed);
  Var prediction = MakeVar(RandomTensor(rng, 3, 4), true);
  Var target = MakeVar(RandomTensor(rng, 3, 4), true);
  return CheckGradients({{"prediction", prediction}, {"target", target}},
                        [prediction, target] {
                          return nn::MseLoss(prediction, target);
                        });
}

CheckReport CheckStridedRowPool(uint64_t seed) {
  Rng rng(seed);
  // 7 rows with stride 3: two full groups plus a ragged tail group.
  Var a = MakeVar(RandomTensor(rng, 7, 3), true);
  const Tensor w = RandomTensor(rng, 3, 3);
  return CheckGradients({{"input", a}}, [a, w] {
    return WeightedMean(nn::StridedRowPool(a, 3), w);
  });
}

CheckReport CheckRowSelectOrMean(uint64_t seed) {
  Rng rng(seed);
  Var a = MakeVar(RandomTensor(rng, 5, 3), true);
  Var b = MakeVar(RandomTensor(rng, 5, 3), true);
  // Rows 0 and 3 select a; the others take b's column mean.
  const std::vector<uint8_t> active = {1, 0, 0, 1, 0};
  const Tensor w = RandomTensor(rng, 5, 3);
  return CheckGradients({{"a", a}, {"b", b}}, [a, b, active, w] {
    return WeightedMean(nn::RowSelectOrMean(a, b, active), w);
  });
}

CheckReport CheckGruCell(uint64_t seed) {
  Rng rng(seed);
  auto cell = std::make_shared<nn::GruCell>(3, 5, rng);
  Var x = MakeVar(RandomTensor(rng, 1, 3), true);
  Var h = MakeVar(RandomTensor(rng, 1, 5), true);
  const Tensor w = RandomTensor(rng, 1, 5);
  std::vector<NamedLeaf> leaves = {{"x", x}, {"h_prev", h}};
  AppendParameters(leaves, cell->Parameters());
  return CheckGradients(leaves, [cell, x, h, w] {
    return WeightedMean(cell->Forward(x, h), w);
  });
}

CheckReport CheckAttention(uint64_t seed, bool causal) {
  Rng rng(seed);
  auto mha = std::make_shared<nn::MultiHeadAttention>(4, 2, rng);
  Var q = MakeVar(RandomTensor(rng, 5, 4), true);
  Var k = MakeVar(RandomTensor(rng, 5, 4), true);
  Var v = MakeVar(RandomTensor(rng, 5, 4), true);
  const Tensor w = RandomTensor(rng, 5, 4);
  std::vector<NamedLeaf> leaves = {{"query", q}, {"key", k}, {"value", v}};
  AppendParameters(leaves, mha->Parameters());
  return CheckGradients(leaves, [mha, q, k, v, w, causal] {
    return WeightedMean(mha->Forward(q, k, v, causal), w);
  });
}

CheckReport CheckAttentionProbSparse(uint64_t seed) {
  Rng rng(seed);
  auto mha = std::make_shared<nn::MultiHeadAttention>(4, 2, rng);
  // At Lq = 6 the top-u cutoff ceil(5*ln 6) covers every query, so the
  // selection is total and the mapping stays differentiable; larger
  // sequences make the discrete top-u choice flip under perturbation.
  Var x = MakeVar(RandomTensor(rng, 6, 4), true);
  const Tensor w = RandomTensor(rng, 6, 4);
  std::vector<NamedLeaf> leaves = {{"input", x}};
  AppendParameters(leaves, mha->Parameters());
  return CheckGradients(leaves, [mha, x, w] {
    return WeightedMean(mha->ForwardProbSparse(x), w);
  });
}

CheckReport CheckEncoderLayer(uint64_t seed) {
  Rng rng(seed);
  auto layer =
      std::make_shared<nn::TransformerEncoderLayer>(4, 2, 8, 0.0, rng);
  Var x = MakeVar(RandomTensor(rng, 6, 4), true);
  const Tensor w = RandomTensor(rng, 6, 4);
  std::vector<NamedLeaf> leaves = {{"input", x}};
  AppendParameters(leaves, layer->Parameters());
  return CheckGradients(leaves, [layer, x, w] {
    Rng unused(0);
    return WeightedMean(layer->Forward(x, /*train=*/false, unused), w);
  });
}

CheckReport CheckDecoderLayer(uint64_t seed) {
  Rng rng(seed);
  auto layer =
      std::make_shared<nn::TransformerDecoderLayer>(4, 2, 8, 0.0, rng);
  Var x = MakeVar(RandomTensor(rng, 5, 4), true);
  Var memory = MakeVar(RandomTensor(rng, 6, 4), true);
  const Tensor w = RandomTensor(rng, 5, 4);
  std::vector<NamedLeaf> leaves = {{"input", x}, {"memory", memory}};
  AppendParameters(leaves, layer->Parameters());
  return CheckGradients(leaves, [layer, x, memory, w] {
    Rng unused(0);
    return WeightedMean(layer->Forward(x, memory, /*train=*/false, unused), w);
  });
}

using OpCheck = CheckReport (*)(uint64_t);

struct OpEntry {
  const char* name;
  OpCheck check;
};

const std::vector<OpEntry>& OpRegistry() {
  static const std::vector<OpEntry> kOps = {
      {"MatMul", &CheckMatMul},
      {"Add", [](uint64_t s) { return CheckBinary(s, &nn::Add); }},
      {"AddRowBroadcast", &CheckAddRowBroadcast},
      {"Sub", [](uint64_t s) { return CheckBinary(s, &nn::Sub); }},
      {"Mul", [](uint64_t s) { return CheckBinary(s, &nn::Mul); }},
      {"Scale", &CheckScale},
      {"Sigmoid", [](uint64_t s) { return CheckUnary(s, &nn::Sigmoid, false); }},
      {"Tanh", [](uint64_t s) { return CheckUnary(s, &nn::Tanh, false); }},
      {"Relu", [](uint64_t s) { return CheckUnary(s, &nn::Relu, true); }},
      {"Gelu", [](uint64_t s) { return CheckUnary(s, &nn::Gelu, false); }},
      {"Softmax", &CheckSoftmax},
      {"SoftmaxMasked", &CheckSoftmaxMasked},
      {"LayerNorm", &CheckLayerNorm},
      {"Dropout", &CheckDropout},
      {"Transpose", &CheckTranspose},
      {"SliceRows", &CheckSliceRows},
      {"SliceCols", &CheckSliceCols},
      {"ConcatRows", &CheckConcatRows},
      {"ConcatCols", &CheckConcatCols},
      {"Mean", &CheckMean},
      {"MseLoss", &CheckMseLoss},
      {"StridedRowPool", &CheckStridedRowPool},
      {"RowSelectOrMean", &CheckRowSelectOrMean},
      {"GruCell", &CheckGruCell},
      {"Attention", [](uint64_t s) { return CheckAttention(s, false); }},
      {"AttentionCausal", [](uint64_t s) { return CheckAttention(s, true); }},
      {"AttentionProbSparse", &CheckAttentionProbSparse},
      {"EncoderLayer", &CheckEncoderLayer},
      {"DecoderLayer", &CheckDecoderLayer},
  };
  return kOps;
}

}  // namespace

CheckReport CheckGradients(const std::vector<NamedLeaf>& leaves,
                           const std::function<nn::Var()>& forward,
                           const GradTolerance& tolerance) {
  CheckReport report;
  Var loss = forward();
  ++report.checks;
  if (loss->value.rows() != 1 || loss->value.cols() != 1) {
    report.failures.push_back({"grad/shape", "loss is not 1x1"});
    return report;
  }
  if (!std::isfinite(loss->value(0, 0))) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "non-finite loss %.9g",
                  loss->value(0, 0));
    report.failures.push_back({"grad/finite", buffer});
    return report;
  }
  nn::Backward(loss);

  // Snapshot the analytic gradients: the finite-difference evaluations below
  // rebuild the graph, and a later Backward would re-zero the leaves.
  std::vector<Tensor> analytic;
  analytic.reserve(leaves.size());
  for (const NamedLeaf& leaf : leaves) analytic.push_back(leaf.var->grad);

  auto eval = [&forward]() { return forward()->value(0, 0); };

  for (size_t li = 0; li < leaves.size(); ++li) {
    const NamedLeaf& leaf = leaves[li];
    ++report.checks;
    if (analytic[li].size() != leaf.var->value.size()) {
      report.failures.push_back(
          {"grad/" + leaf.name, "leaf not reached by backward pass"});
      continue;
    }
    // One failure per leaf: the entry with the largest tolerance excess.
    double worst_excess = 0.0;
    std::string worst_detail;
    bool non_finite = false;
    for (size_t r = 0; r < leaf.var->value.rows() && !non_finite; ++r) {
      for (size_t c = 0; c < leaf.var->value.cols(); ++c) {
        const double a = analytic[li](r, c);
        if (!std::isfinite(a)) {
          report.failures.push_back(
              {"grad/" + leaf.name,
               FormatEntry("non-finite analytic gradient", r, c, a, 0.0)});
          non_finite = true;
          break;
        }
        double& x = leaf.var->value(r, c);
        const double orig = x;
        const double h = tolerance.step * std::max(1.0, std::abs(orig));
        x = orig + h;
        const double fp = eval();
        x = orig - h;
        const double fm = eval();
        x = orig;
        if (!std::isfinite(fp) || !std::isfinite(fm)) {
          report.failures.push_back(
              {"grad/" + leaf.name,
               FormatEntry("non-finite perturbed loss", r, c, fp, fm)});
          non_finite = true;
          break;
        }
        const double numeric = (fp - fm) / (2.0 * h);
        const double err = std::abs(a - numeric);
        const double allow =
            tolerance.atol +
            tolerance.rtol * std::max(std::abs(a), std::abs(numeric));
        if (err > allow && err - allow > worst_excess) {
          worst_excess = err - allow;
          worst_detail = FormatEntry("mismatch", r, c, a, numeric);
        }
      }
    }
    if (!non_finite && worst_excess > 0.0) {
      report.failures.push_back({"grad/" + leaf.name, worst_detail});
    }
  }
  return report;
}

const std::vector<std::string>& GradCheckOpNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const OpEntry& e : OpRegistry()) names.emplace_back(e.name);
    return names;
  }();
  return kNames;
}

Result<CheckReport> RunOpGradChecks(const std::string& op, uint64_t seed) {
  for (const OpEntry& e : OpRegistry()) {
    if (op == e.name) return e.check(seed);
  }
  return Status::NotFound("unknown numcheck op: " + op);
}

}  // namespace lossyts::numcheck
