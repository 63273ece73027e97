// Batch normalization for rank-2 ([N, F], per feature) and rank-4 (NCHW, per
// channel) activations.  Training mode uses batch statistics and updates
// running estimates; inference uses the running estimates.
#pragma once

#include "nn/layer.h"

namespace openei::nn {

class BatchNorm : public Layer {
 public:
  /// `features` is the feature count (rank-2) or channel count (rank-4).
  explicit BatchNorm(std::size_t features, float momentum = 0.9F,
                     float epsilon = 1e-5F);

  std::string type() const override { return "batchnorm"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> gradients() override { return {&grad_gamma_, &grad_beta_}; }
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override {
    return 4 * input.elements();
  }
  std::unique_ptr<Layer> clone() const override;
  common::Json config() const override;

  std::size_t features() const { return features_; }
  float epsilon() const { return epsilon_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }

 private:
  /// Maps a flat element index to its feature/channel index for the cached
  /// input shape.
  std::size_t feature_of(std::size_t flat, const Shape& shape) const;

  std::size_t features_;
  float momentum_;
  float epsilon_;
  Tensor gamma_;  // scale, [F]
  Tensor beta_;   // shift, [F]
  Tensor grad_gamma_;
  Tensor grad_beta_;
  Tensor running_mean_;  // [F]
  Tensor running_var_;   // [F]

  // Training caches.
  Tensor cached_normalized_;     // x_hat
  Tensor cached_batch_inv_std_;  // [F]
  Shape cached_shape_;
  std::size_t cached_per_feature_ = 0;  // elements averaged per feature
};

}  // namespace openei::nn
