#include "forecast/transformer.h"

#include <algorithm>

#include "nn/attention.h"
#include "nn/module.h"

namespace lossyts::forecast {

namespace {

class TransformerNetwork : public WindowNetwork {
 public:
  TransformerNetwork(size_t input_length, size_t horizon,
                     const TransformerForecaster::Architecture& arch,
                     bool prob_sparse, bool distill, double dropout, Rng& rng)
      : input_length_(input_length),
        horizon_(horizon),
        arch_(arch),
        prob_sparse_(prob_sparse),
        distill_(distill),
        dropout_(dropout),
        embed_(1, arch.d_model, rng),
        head_(arch.d_model, 1, rng),
        enc_pe_(nn::PositionalEncoding(input_length, arch.d_model)),
        dec_pe_(nn::PositionalEncoding(
            std::min(arch.label_length, input_length) + horizon,
            arch.d_model)) {
    for (size_t l = 0; l < arch.encoder_layers; ++l) {
      encoder_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
          arch.d_model, arch.num_heads, arch.d_ff, dropout, rng));
    }
    for (size_t l = 0; l < arch.decoder_layers; ++l) {
      decoder_.push_back(std::make_unique<nn::TransformerDecoderLayer>(
          arch.d_model, arch.num_heads, arch.d_ff, dropout, rng));
    }
  }

  nn::Var Forward(const nn::Var& batch, bool train, Rng& rng) override {
    // Attention runs per sequence; loop over batch rows and restack. The
    // positional encodings and the decoder placeholders are constants
    // shared by every row, so Backward() zero-fills one gradient each
    // rather than one per row.
    const Constants constants{
        nn::MakeVar(enc_pe_), nn::MakeVar(dec_pe_),
        nn::MakeVar(nn::Tensor(horizon_, arch_.d_model, 0.0))};
    nn::Var outputs;
    for (size_t r = 0; r < batch->value.rows(); ++r) {
      const nn::Var row = nn::SliceRows(batch, r, r + 1);
      const nn::Var pred = ForwardOne(row, constants, train, rng);
      outputs = r == 0 ? pred : nn::ConcatRows(outputs, pred);
    }
    return outputs;
  }

  std::vector<nn::Var> Parameters() const override {
    std::vector<nn::Var> params = embed_.Parameters();
    for (const nn::Var& p : head_.Parameters()) params.push_back(p);
    for (const auto& layer : encoder_) {
      for (const nn::Var& p : layer->Parameters()) params.push_back(p);
    }
    for (const auto& layer : decoder_) {
      for (const nn::Var& p : layer->Parameters()) params.push_back(p);
    }
    return params;
  }

 private:
  struct Constants {
    nn::Var enc_pe;
    nn::Var dec_pe;
    nn::Var placeholders;  // Zeros, (horizon × d_model).
  };

  // One window: (1 × input_length) -> (1 × horizon).
  nn::Var ForwardOne(const nn::Var& row, const Constants& constants,
                     bool train, Rng& rng) {
    // Embed each scalar observation to d_model and add positions.
    const nn::Var seq = nn::Transpose(row);  // (L × 1).
    nn::Var x = nn::Add(embed_.Forward(seq), constants.enc_pe);

    for (size_t l = 0; l < encoder_.size(); ++l) {
      x = encoder_[l]->Forward(x, train, rng, prob_sparse_);
      // Informer distilling: halve the sequence between encoder layers.
      if (distill_ && l + 1 < encoder_.size()) {
        x = nn::StridedRowPool(x, 2);
      }
    }
    const nn::Var memory = x;

    // Decoder input: last label_length embedded observations + zero
    // placeholders for the horizon (the Informer-style generative decoder
    // emitting the whole horizon in one forward pass).
    const size_t label = std::min(arch_.label_length, input_length_);
    const nn::Var label_seq =
        nn::SliceRows(seq, input_length_ - label, input_length_);
    const nn::Var label_embedded = embed_.Forward(label_seq);
    nn::Var dec =
        nn::Add(nn::ConcatRows(label_embedded, constants.placeholders),
                constants.dec_pe);
    for (const auto& layer : decoder_) {
      dec = layer->Forward(dec, memory, train, rng);
    }
    const nn::Var horizon_part =
        nn::SliceRows(dec, label, label + horizon_);
    return nn::Transpose(head_.Forward(horizon_part));  // (1 × horizon).
  }

  size_t input_length_;
  size_t horizon_;
  TransformerForecaster::Architecture arch_;
  bool prob_sparse_;
  bool distill_;
  double dropout_;
  nn::Linear embed_;
  nn::Linear head_;
  nn::Tensor enc_pe_;
  nn::Tensor dec_pe_;
  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> encoder_;
  std::vector<std::unique_ptr<nn::TransformerDecoderLayer>> decoder_;
};

}  // namespace

std::unique_ptr<WindowNetwork> TransformerForecaster::BuildNetwork(Rng& rng) {
  return std::make_unique<TransformerNetwork>(
      config().input_length, config().horizon, arch_, prob_sparse_, distill_,
      config().dropout, rng);
}

}  // namespace lossyts::forecast
