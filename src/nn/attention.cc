#include "nn/attention.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace lossyts::nn {

namespace {
constexpr double kMaskValue = -1e9;
}  // namespace

MultiHeadAttention::MultiHeadAttention(size_t d_model, size_t num_heads,
                                       Rng& rng)
    : d_model_(d_model), num_heads_(num_heads), d_head_(d_model / num_heads) {
  assert(d_model % num_heads == 0);
  wq_ = std::make_unique<Linear>(d_model, d_model, rng);
  wk_ = std::make_unique<Linear>(d_model, d_model, rng);
  wv_ = std::make_unique<Linear>(d_model, d_model, rng);
  wo_ = std::make_unique<Linear>(d_model, d_model, rng);
}

Var MultiHeadAttention::HeadAttention(const Var& q, const Var& k, const Var& v,
                                      bool causal) const {
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));
  Var scores = Scale(MatMul(q, Transpose(k)), scale);
  Var weights;
  if (causal) {
    assert(q->value.rows() == k->value.rows());
    Tensor mask(q->value.rows(), k->value.rows(), 0.0);
    for (size_t i = 0; i < mask.rows(); ++i) {
      for (size_t j = i + 1; j < mask.cols(); ++j) mask(i, j) = kMaskValue;
    }
    weights = Softmax(scores, &mask);
  } else {
    weights = Softmax(scores);
  }
  return MatMul(weights, v);
}

Var MultiHeadAttention::Forward(const Var& query, const Var& key,
                                const Var& value, bool causal) const {
  const Var q = wq_->Forward(query);
  const Var k = wk_->Forward(key);
  const Var v = wv_->Forward(value);
  Var concat;
  for (size_t h = 0; h < num_heads_; ++h) {
    const size_t begin = h * d_head_;
    const size_t end = begin + d_head_;
    const Var head = HeadAttention(SliceCols(q, begin, end),
                                   SliceCols(k, begin, end),
                                   SliceCols(v, begin, end), causal);
    concat = h == 0 ? head : ConcatCols(concat, head);
  }
  return wo_->Forward(concat);
}

Var MultiHeadAttention::ForwardProbSparse(const Var& x, double factor) const {
  const Var q = wq_->Forward(x);
  const Var k = wk_->Forward(x);
  const Var v = wv_->Forward(x);
  const size_t seq = x->value.rows();
  const size_t u = std::min<size_t>(
      seq, static_cast<size_t>(
               std::ceil(factor * std::log(static_cast<double>(seq) + 1.0))));
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  Var concat;
  for (size_t h = 0; h < num_heads_; ++h) {
    const size_t begin = h * d_head_;
    const size_t end = begin + d_head_;
    const Var qh = SliceCols(q, begin, end);
    const Var kh = SliceCols(k, begin, end);
    const Var vh = SliceCols(v, begin, end);

    Var scores = Scale(MatMul(qh, Transpose(kh)), scale);

    // Sparsity measure M(q_i) = max_j s_ij − mean_j s_ij on the numeric
    // values; the discrete top-u selection is treated as a constant, exactly
    // as in the reference implementation.
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
    std::partial_sort(sparsity.begin(), sparsity.begin() + u, sparsity.end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    std::vector<uint8_t> active(seq, 0);
    for (size_t r = 0; r < u; ++r) active[sparsity[r].second] = 1;
    // Lazy queries output the mean of V.
    const Var head =
        RowSelectOrMean(MatMul(Softmax(scores), vh), vh, std::move(active));
    concat = h == 0 ? head : ConcatCols(concat, head);
  }
  return wo_->Forward(concat);
}

std::vector<Var> MultiHeadAttention::Parameters() const {
  std::vector<Var> params;
  for (const auto* linear : {wq_.get(), wk_.get(), wv_.get(), wo_.get()}) {
    for (const Var& p : linear->Parameters()) params.push_back(p);
  }
  return params;
}

TransformerEncoderLayer::TransformerEncoderLayer(size_t d_model,
                                                 size_t num_heads, size_t d_ff,
                                                 double dropout, Rng& rng)
    : dropout_(dropout) {
  attention_ = std::make_unique<MultiHeadAttention>(d_model, num_heads, rng);
  ff1_ = std::make_unique<Linear>(d_model, d_ff, rng);
  ff2_ = std::make_unique<Linear>(d_ff, d_model, rng);
  norm1_ = std::make_unique<LayerNormModule>(d_model);
  norm2_ = std::make_unique<LayerNormModule>(d_model);
}

Var TransformerEncoderLayer::Forward(const Var& x, bool train, Rng& rng,
                                     bool prob_sparse) const {
  const Var normed = norm1_->Forward(x);
  const Var attended = prob_sparse
                           ? attention_->ForwardProbSparse(normed)
                           : attention_->Forward(normed, normed, normed);
  const Var x1 = Add(x, Dropout(attended, dropout_, train, rng));
  const Var normed2 = norm2_->Forward(x1);
  const Var ff = ff2_->Forward(Gelu(ff1_->Forward(normed2)));
  return Add(x1, Dropout(ff, dropout_, train, rng));
}

std::vector<Var> TransformerEncoderLayer::Parameters() const {
  std::vector<Var> params = attention_->Parameters();
  for (const Module* m :
       {static_cast<const Module*>(ff1_.get()),
        static_cast<const Module*>(ff2_.get()),
        static_cast<const Module*>(norm1_.get()),
        static_cast<const Module*>(norm2_.get())}) {
    for (const Var& p : m->Parameters()) params.push_back(p);
  }
  return params;
}

TransformerDecoderLayer::TransformerDecoderLayer(size_t d_model,
                                                 size_t num_heads, size_t d_ff,
                                                 double dropout, Rng& rng)
    : dropout_(dropout) {
  self_attention_ =
      std::make_unique<MultiHeadAttention>(d_model, num_heads, rng);
  cross_attention_ =
      std::make_unique<MultiHeadAttention>(d_model, num_heads, rng);
  ff1_ = std::make_unique<Linear>(d_model, d_ff, rng);
  ff2_ = std::make_unique<Linear>(d_ff, d_model, rng);
  norm1_ = std::make_unique<LayerNormModule>(d_model);
  norm2_ = std::make_unique<LayerNormModule>(d_model);
  norm3_ = std::make_unique<LayerNormModule>(d_model);
}

Var TransformerDecoderLayer::Forward(const Var& x, const Var& memory,
                                     bool train, Rng& rng) const {
  const Var n1 = norm1_->Forward(x);
  const Var self =
      self_attention_->Forward(n1, n1, n1, /*causal=*/true);
  const Var x1 = Add(x, Dropout(self, dropout_, train, rng));

  const Var n2 = norm2_->Forward(x1);
  const Var cross = cross_attention_->Forward(n2, memory, memory);
  const Var x2 = Add(x1, Dropout(cross, dropout_, train, rng));

  const Var n3 = norm3_->Forward(x2);
  const Var ff = ff2_->Forward(Gelu(ff1_->Forward(n3)));
  return Add(x2, Dropout(ff, dropout_, train, rng));
}

std::vector<Var> TransformerDecoderLayer::Parameters() const {
  std::vector<Var> params = self_attention_->Parameters();
  for (const Var& p : cross_attention_->Parameters()) params.push_back(p);
  for (const Module* m :
       {static_cast<const Module*>(ff1_.get()),
        static_cast<const Module*>(ff2_.get()),
        static_cast<const Module*>(norm1_.get()),
        static_cast<const Module*>(norm2_.get()),
        static_cast<const Module*>(norm3_.get())}) {
    for (const Var& p : m->Parameters()) params.push_back(p);
  }
  return params;
}

Tensor PositionalEncoding(size_t seq_len, size_t d_model) {
  Tensor pe(seq_len, d_model);
  for (size_t pos = 0; pos < seq_len; ++pos) {
    for (size_t i = 0; i < d_model; ++i) {
      const double angle =
          static_cast<double>(pos) /
          std::pow(10000.0, 2.0 * static_cast<double>(i / 2) /
                                static_cast<double>(d_model));
      pe(pos, i) = i % 2 == 0 ? std::sin(angle) : std::cos(angle);
    }
  }
  return pe;
}

}  // namespace lossyts::nn
