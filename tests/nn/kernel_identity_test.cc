// Bit-identity of the blocked MatMul kernels and the ProbSparse head op
// against the formulations they replaced, kept here as oracles: the textbook
// i-p-j forward and interleaved backward loops, and the dense one-hot
// select/complement/ones products of ProbSparse attention. Values and
// gradients are compared with memcmp, so a changed summation order, an
// added zero or a contracted multiply-add fails.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/attention.h"
#include "nn/autodiff.h"

namespace lossyts::nn {
namespace {

void ExpectSameBits(const Tensor& got, const Tensor& want,
                    const std::string& tag) {
  ASSERT_TRUE(got.SameShape(want)) << tag;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << tag;
}

// Uniform entries in [-1, 1); `zero_rate` of them are exactly zero, half of
// those -0.0.
Tensor RandomTensor(Rng& rng, size_t rows, size_t cols,
                    double zero_rate = 0.0) {
  Tensor t(rows, cols);
  for (double& v : t.storage()) {
    const double u = rng.Uniform();
    if (u < zero_rate) {
      v = u < zero_rate / 2 ? -0.0 : 0.0;
    } else {
      v = rng.Uniform(-1.0, 1.0);
    }
  }
  return t;
}

// ---- Oracle: the pre-kernel MatMul loops. ----

Tensor OracleForward(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t p = 0; p < a.cols(); ++p) {
      const double av = a(i, p);
      if (av == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) out(i, j) += av * b(p, j);
    }
  }
  return out;
}

void OracleBackward(const Tensor& a, const Tensor& b, const Tensor& g,
                    Tensor& da, Tensor& db) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      const double gv = g(i, j);
      if (gv == 0.0) continue;
      for (size_t p = 0; p < a.cols(); ++p) {
        da(i, p) += gv * b(p, j);
        db(p, j) += a(i, p) * gv;
      }
    }
  }
}

struct MatMulCase {
  Tensor a, b, dout, a_grad0, b_grad0;
  bool a_requires = true;
  bool b_requires = true;
};

// Runs MatMul forward, seeds its output gradient with `dout` and the input
// gradients with their priors, runs the op's backward and compares all of
// it with the oracle. Inputs without requires_grad must keep their prior.
void CheckMatMul(const MatMulCase& c, const std::string& tag) {
  Var a = MakeVar(c.a, c.a_requires);
  Var b = MakeVar(c.b, c.b_requires);
  Var out = MatMul(a, b);
  ExpectSameBits(out->value, OracleForward(c.a, c.b), tag + " forward");
  if (!out->backward) return;
  out->grad = c.dout;
  a->grad = c.a_grad0;
  b->grad = c.b_grad0;
  out->backward(*out);

  Tensor want_da = c.a_grad0;
  Tensor want_db = c.b_grad0;
  OracleBackward(c.a, c.b, c.dout, want_da, want_db);
  ExpectSameBits(a->grad, c.a_requires ? want_da : c.a_grad0, tag + " dA");
  ExpectSameBits(b->grad, c.b_requires ? want_db : c.b_grad0, tag + " dB");
}

MatMulCase RandomCase(Rng& rng, size_t m, size_t k, size_t n,
                      double zero_rate) {
  MatMulCase c;
  c.a = RandomTensor(rng, m, k, zero_rate);
  c.b = RandomTensor(rng, k, n, zero_rate);
  c.dout = RandomTensor(rng, m, n, zero_rate);
  c.a_grad0 = RandomTensor(rng, m, k, zero_rate);
  c.b_grad0 = RandomTensor(rng, k, n, zero_rate);
  return c;
}

std::string ShapeTag(size_t m, size_t k, size_t n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" +
         std::to_string(n);
}

// k and n straddle the 8-column register tile; m covers the 2-row tile and
// its one-row tail.
constexpr size_t kRowsList[] = {1, 2, 3, 5};
constexpr size_t kDims[] = {1, 7, 8, 9, 17, 96};

TEST(MatMulKernelTest, MatchesTextbookLoopsAcrossTileTails) {
  Rng rng(101);
  for (size_t m : kRowsList) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        CheckMatMul(RandomCase(rng, m, k, n, 0.0), ShapeTag(m, k, n));
      }
    }
  }
}

TEST(MatMulKernelTest, SkipsZerosInAAndInDOut) {
  Rng rng(102);
  for (size_t m : kRowsList) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        CheckMatMul(RandomCase(rng, m, k, n, 0.4),
                    ShapeTag(m, k, n) + " sparse");
      }
    }
  }
}

TEST(MatMulKernelTest, AccumulatesIntoNonZeroGradients) {
  // The priors are dense and non-zero; every product must land on top of
  // them in the oracle's order, not be summed apart and added once.
  Rng rng(103);
  for (size_t k : kDims) {
    for (size_t n : kDims) {
      MatMulCase c = RandomCase(rng, 5, k, n, 0.0);
      for (double& v : c.a_grad0.storage()) v = 1e3 * (v + 2.0);
      for (double& v : c.b_grad0.storage()) v = -1e-3 * (v + 2.0);
      CheckMatMul(c, ShapeTag(5, k, n) + " prior");
    }
  }
}

TEST(MatMulKernelTest, ConstantInputKeepsItsGradientUntouched) {
  Rng rng(104);
  for (size_t n : kDims) {
    MatMulCase c = RandomCase(rng, 3, 9, n, 0.2);
    c.a_requires = false;
    CheckMatMul(c, "const A n=" + std::to_string(n));
    c.a_requires = true;
    c.b_requires = false;
    CheckMatMul(c, "const B n=" + std::to_string(n));
  }
}

TEST(MatMulKernelTest, NonFiniteAWhereDOutIsZeroNeverEntersDB) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(105);
  for (size_t k : kDims) {
    for (size_t n : kDims) {
      MatMulCase c = RandomCase(rng, 5, k, n, 0.0);
      // One non-finite entry in each of rows 0, 2 and 4 of A, whose dOut
      // rows are zero. B has no zeros, so the forward rows are ±inf or NaN
      // from a single source and their bits are order-independent.
      const double poison[] = {inf, -inf, nan};
      for (size_t r = 0; r < 3; ++r) {
        c.a(2 * r, (r * 5) % k) = poison[r];
        for (size_t j = 0; j < n; ++j) c.dout(2 * r, j) = r == 1 ? -0.0 : 0.0;
      }
      for (double& v : c.b.storage()) {
        if (v == 0.0) v = 0.5;
      }
      CheckMatMul(c, ShapeTag(5, k, n) + " non-finite");
    }
  }
}

TEST(MatMulKernelTest, SelfProductGradientIsCorrect) {
  // x·x: dA and dB both add into x's gradient. Nothing calls MatMul on one
  // Var twice, so only the value of the sum is pinned, not its order.
  Rng rng(106);
  for (size_t k : {1, 8, 9, 17}) {
    const Tensor x0 = RandomTensor(rng, k, k, 0.2);
    const Tensor dout = RandomTensor(rng, k, k, 0.2);
    const Tensor prior = RandomTensor(rng, k, k);
    Var x = MakeVar(x0, true);
    Var out = MatMul(x, x);
    ExpectSameBits(out->value, OracleForward(x0, x0), "x·x forward");
    out->grad = dout;
    x->grad = prior;
    out->backward(*out);
    Tensor want = prior;
    OracleBackward(x0, x0, dout, want, want);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(x->grad.storage()[i], want.storage()[i], 1e-12)
          << "x·x grad k=" << k << " at " << i;
    }
  }
}

// ---- Oracle: ProbSparse heads as dense one-hot products. ----

Var OracleSparseHead(const Var& attended, const Var& v,
                     const std::vector<uint8_t>& active) {
  const size_t seq = v->value.rows();
  Tensor select(seq, seq, 0.0);
  Tensor complement(seq, seq, 0.0);
  for (size_t i = 0; i < seq; ++i) {
    (active[i] ? select : complement)(i, i) = 1.0;
  }
  Tensor ones(seq, seq, 1.0 / static_cast<double>(seq));
  const Var mean_v = MatMul(MakeVar(std::move(ones)), v);
  return Add(MatMul(MakeVar(std::move(select)), attended),
             MatMul(MakeVar(std::move(complement)), mean_v));
}

// The pre-op MultiHeadAttention::ForwardProbSparse, on the module's own
// parameters (wq, wk, wv, wo; weight then bias each).
Var OracleProbSparse(const std::vector<Var>& params, const Var& x,
                     size_t num_heads) {
  auto linear = [&](size_t l, const Var& in) {
    return AddRowBroadcast(MatMul(in, params[2 * l]), params[2 * l + 1]);
  };
  const Var q = linear(0, x);
  const Var k = linear(1, x);
  const Var v = linear(2, x);
  const size_t seq = x->value.rows();
  const size_t d_head = q->value.cols() / num_heads;
  const size_t u = std::min<size_t>(
      seq, static_cast<size_t>(
               std::ceil(5.0 * std::log(static_cast<double>(seq) + 1.0))));
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head));
  Var concat;
  for (size_t h = 0; h < num_heads; ++h) {
    const Var qh = SliceCols(q, h * d_head, (h + 1) * d_head);
    const Var kh = SliceCols(k, h * d_head, (h + 1) * d_head);
    const Var vh = SliceCols(v, h * d_head, (h + 1) * d_head);
    Var scores = Scale(MatMul(qh, Transpose(kh)), scale);
    std::vector<std::pair<double, size_t>> sparsity(seq);
    for (size_t i = 0; i < seq; ++i) {
      double mx = scores->value(i, 0);
      double sum = 0.0;
      for (size_t j = 0; j < seq; ++j) {
        mx = std::max(mx, scores->value(i, j));
        sum += scores->value(i, j);
      }
      sparsity[i] = {mx - sum / static_cast<double>(seq), i};
    }
    std::partial_sort(
        sparsity.begin(), sparsity.begin() + u, sparsity.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<uint8_t> active(seq, 0);
    for (size_t r = 0; r < u; ++r) active[sparsity[r].second] = 1;
    const Var head =
        OracleSparseHead(MatMul(Softmax(scores), vh), vh, active);
    concat = h == 0 ? head : ConcatCols(concat, head);
  }
  return linear(3, concat);
}

std::vector<uint8_t> RandomActive(Rng& rng, size_t rows) {
  std::vector<uint8_t> active(rows);
  for (uint8_t& a : active) a = rng.Uniform() < 0.3 ? 1 : 0;
  return active;
}

TEST(RowSelectOrMeanTest, MatchesOneHotProductsOnLeaves) {
  Rng rng(201);
  for (size_t rows : {1, 6, 24, 96}) {
    for (size_t cols : {1, 8, 9}) {
      const Tensor a0 = RandomTensor(rng, rows, cols, 0.1);
      const Tensor b0 = RandomTensor(rng, rows, cols, 0.1);
      const Tensor w = RandomTensor(rng, rows, cols, 0.2);
      const std::vector<uint8_t> active = RandomActive(rng, rows);
      const std::string tag = std::to_string(rows) + "x" + std::to_string(cols);

      Var a = MakeVar(a0, true);
      Var b = MakeVar(b0, true);
      const Var want = OracleSparseHead(a, b, active);
      Backward(Mean(Mul(want, MakeVar(w))));
      const Tensor want_da = a->grad;
      const Tensor want_db = b->grad;

      const Var got = RowSelectOrMean(a, b, active);
      Backward(Mean(Mul(got, MakeVar(w))));
      ExpectSameBits(got->value, want->value, tag + " value");
      ExpectSameBits(a->grad, want_da, tag + " da");
      ExpectSameBits(b->grad, want_db, tag + " db");
    }
  }
}

TEST(RowSelectOrMeanTest, AccumulatesIntoNonZeroGradients) {
  // b's prior mixes +0.0 (column-total shortcut), -0.0 and non-zero entries
  // (term-by-term replay); the oracle adds inv·dOut(i, j) for each lazy row
  // in ascending i, as the (1/L)·ones product's backward did.
  Rng rng(202);
  const size_t rows = 24;
  const size_t cols = 9;
  const Tensor dout = RandomTensor(rng, rows, cols, 0.2);
  const std::vector<uint8_t> active = RandomActive(rng, rows);
  Tensor prior_a = RandomTensor(rng, rows, cols, 0.3);
  Tensor prior_b = RandomTensor(rng, rows, cols, 0.5);

  Var a = MakeVar(RandomTensor(rng, rows, cols), true);
  Var b = MakeVar(RandomTensor(rng, rows, cols), true);
  Var out = RowSelectOrMean(a, b, active);
  out->grad = dout;
  a->grad = prior_a;
  b->grad = prior_b;
  out->backward(*out);

  const double inv = 1.0 / static_cast<double>(rows);
  Tensor want_a = prior_a;
  Tensor want_b = prior_b;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const double g = dout(i, j);
      if (g == 0.0) continue;
      if (active[i]) {
        want_a(i, j) += g;
      } else {
        for (size_t q = 0; q < rows; ++q) want_b(q, j) += inv * g;
      }
    }
  }
  ExpectSameBits(a->grad, want_a, "da");
  ExpectSameBits(b->grad, want_b, "db");
}

TEST(RowSelectOrMeanTest, ConstantInputMatchesOneHotProducts) {
  // One side constant: the other side's gradient keeps the one-hot graph's
  // bits.
  Rng rng(203);
  for (bool a_requires : {false, true}) {
    Var a = MakeVar(RandomTensor(rng, 24, 9, 0.1), a_requires);
    Var b = MakeVar(RandomTensor(rng, 24, 9, 0.1), !a_requires);
    const Tensor w = RandomTensor(rng, 24, 9, 0.2);
    const std::vector<uint8_t> active = RandomActive(rng, 24);
    const Var& learned = a_requires ? a : b;

    const Var want = OracleSparseHead(a, b, active);
    Backward(Mean(Mul(want, MakeVar(w))));
    const Tensor want_grad = learned->grad;

    const Var got = RowSelectOrMean(a, b, active);
    Backward(Mean(Mul(got, MakeVar(w))));
    const std::string tag = a_requires ? "constant b" : "constant a";
    ExpectSameBits(got->value, want->value, tag + " value");
    ExpectSameBits(learned->grad, want_grad, tag + " grad");
  }
}

TEST(RowSelectOrMeanTest, ProbSparseAttentionMatchesOneHotGraph) {
  // The whole layer: values, the input gradient and every parameter
  // gradient, including v's, which the head op must feed before the
  // attention product does.
  for (size_t seq : {6, 24, 96}) {
    Rng rng(300 + seq);
    MultiHeadAttention mha(8, 2, rng);
    Var x = MakeVar(RandomTensor(rng, seq, 8), true);
    const Tensor w = RandomTensor(rng, seq, 8);
    const std::vector<Var> params = mha.Parameters();

    const Var want = OracleProbSparse(params, x, 2);
    Backward(Mean(Mul(want, MakeVar(w))));
    std::vector<Tensor> want_grads = {x->grad};
    for (const Var& p : params) want_grads.push_back(p->grad);

    const Var got = mha.ForwardProbSparse(x);
    Backward(Mean(Mul(got, MakeVar(w))));
    const std::string tag = "seq " + std::to_string(seq);
    ExpectSameBits(got->value, want->value, tag + " value");
    ExpectSameBits(x->grad, want_grads[0], tag + " input grad");
    for (size_t i = 0; i < params.size(); ++i) {
      ExpectSameBits(params[i]->grad, want_grads[i + 1],
                     tag + " param " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace lossyts::nn
