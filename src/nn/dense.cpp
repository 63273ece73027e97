#include "nn/dense.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "tensor/ops.h"

namespace openei::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, common::Rng& rng)
    : weights_(Tensor::random_uniform(
          Shape{in_features, out_features}, rng,
          -std::sqrt(6.0F / static_cast<float>(in_features + out_features)),
          std::sqrt(6.0F / static_cast<float>(in_features + out_features)))),
      bias_(Shape{out_features}),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {}

Dense::Dense(Tensor weights, Tensor bias)
    : weights_(std::move(weights)),
      bias_(std::move(bias)),
      grad_weights_(weights_.shape()),
      grad_bias_(bias_.shape()) {
  OPENEI_CHECK(weights_.shape().rank() == 2, "dense weights must be rank 2");
  OPENEI_CHECK(bias_.elements() == weights_.shape().dim(1),
               "dense bias size mismatch");
}

Tensor Dense::forward(const Tensor& input, bool training) {
  OPENEI_CHECK(input.shape().rank() == 2, "dense input must be [N, in]");
  OPENEI_CHECK(input.shape().dim(1) == in_features(), "dense input width ",
               input.shape().dim(1), " != ", in_features());
  if (training) cached_input_ = input;
  return tensor::add_row_bias(tensor::matmul(input, weights_), bias_);
}

Tensor Dense::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_.shape().rank() == 2,
               "backward without prior training forward");
  // dW = X^T dY; db = column sums of dY; dX = dY W^T.
  grad_weights_ += tensor::matmul(tensor::transpose(cached_input_), grad_output);
  std::size_t rows = grad_output.shape().dim(0);
  std::size_t cols = grad_output.shape().dim(1);
  // Column sums: each column accumulates rows in ascending order, so
  // column-parallel execution is bit-identical to the serial loop.
  common::parallel_for(
      0, cols,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          for (std::size_t r = 0; r < rows; ++r) {
            grad_bias_[c] += grad_output.at2(r, c);
          }
        }
      },
      /*grain=*/std::max<std::size_t>(4, 4096 / std::max<std::size_t>(1, rows)));
  return tensor::matmul(grad_output, tensor::transpose(weights_));
}

Shape Dense::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 1 && input.dim(0) == in_features(),
               "dense expects sample shape [", in_features(), "], got ",
               input.to_string());
  return Shape{out_features()};
}

std::size_t Dense::flops(const Shape& input) const {
  (void)output_shape(input);  // validates
  return 2 * in_features() * out_features();
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(weights_, bias_);
}

common::Json Dense::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("in", in_features());
  cfg.set("out", out_features());
  return cfg;
}

QuantizedDense::QuantizedDense(tensor::PackedQuantMatrix packed, Tensor bias)
    : packed_(std::move(packed)), bias_(std::move(bias)) {
  OPENEI_CHECK(bias_.elements() == packed_.rows(),
               "quantized dense bias size mismatch");
}

QuantizedDense::QuantizedDense(tensor::QuantizedTensor weights, Tensor bias)
    : QuantizedDense(tensor::PackedQuantMatrix::from_per_tensor(weights),
                     std::move(bias)) {}

std::unique_ptr<QuantizedDense> QuantizedDense::from_dense(const Dense& dense) {
  return std::make_unique<QuantizedDense>(
      tensor::PackedQuantMatrix::pack_transposed(dense.weights(),
                                                 /*per_channel=*/true),
      dense.bias());
}

tensor::QuantParams QuantizedDense::effective_input_params(const float* input,
                                                           std::size_t n) const {
  return input_params_ ? *input_params_ : tensor::QuantParams::fit(input, n);
}

void QuantizedDense::forward_into(const float* input, std::size_t rows,
                                  std::uint8_t* staging, bool fuse_relu,
                                  float* out) const {
  const std::size_t in = in_features();
  const std::size_t lda = tensor::qgemm_row_bytes(in);
  tensor::QuantParams params = effective_input_params(input, rows * in);
  // Stage the activations as the GEMM's biased [rows, lda] rows: one bulk
  // quantize when the rows need no tail, else one per row plus its tail.
  if (lda == in) {
    tensor::quantize_biased(input, rows * in, params, staging);
  } else {
    for (std::size_t i = 0; i < rows; ++i) {
      std::uint8_t* row = staging + i * lda;
      tensor::quantize_biased(input + i * in, in, params, row);
      std::fill(row + in, row + lda, tensor::biased(0));
    }
  }
  tensor::qgemm(staging, rows, in, params, packed_, bias_.data().data(),
                fuse_relu, out);
}

Tensor QuantizedDense::forward(const Tensor& input, bool training) {
  OPENEI_CHECK(!training, "QuantizedDense is inference-only");
  OPENEI_CHECK(input.shape().rank() == 2 &&
                   input.shape().dim(1) == in_features(),
               "quantized dense input shape mismatch");
  std::size_t rows = input.shape().dim(0);
  std::vector<std::uint8_t> staging(rows *
                                    tensor::qgemm_row_bytes(in_features()));
  Tensor out(Shape{rows, out_features()});
  forward_into(input.data().data(), rows, staging.data(), /*fuse_relu=*/false,
               out.data().data());
  return out;
}

Tensor QuantizedDense::backward(const Tensor&) {
  throw openei::InvalidArgument("QuantizedDense does not support training");
}

Shape QuantizedDense::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 1 && input.dim(0) == in_features(),
               "quantized dense sample shape mismatch");
  return Shape{out_features()};
}

std::size_t QuantizedDense::flops(const Shape& input) const {
  (void)output_shape(input);
  return 2 * in_features() * out_features();
}

std::unique_ptr<Layer> QuantizedDense::clone() const {
  auto copy = std::make_unique<QuantizedDense>(packed_, bias_);
  copy->input_params_ = input_params_;
  return copy;
}

common::Json QuantizedDense::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("in", in_features());
  cfg.set("out", out_features());
  cfg.set("per_channel", packed_.per_channel());
  cfg.set("weight_zero_point", packed_.weight_zero_point());
  common::JsonArray scales;
  for (float s : packed_.scales()) scales.push_back(common::Json{static_cast<double>(s)});
  cfg.set("scales", common::Json{std::move(scales)});
  if (input_params_) {
    cfg.set("input_scale", static_cast<double>(input_params_->scale));
    cfg.set("input_zero_point", input_params_->zero_point);
  }
  return cfg;
}

FactoredDense::FactoredDense(Tensor u, Tensor v, Tensor bias)
    : u_(std::move(u)),
      v_(std::move(v)),
      bias_(std::move(bias)),
      grad_u_(u_.shape()),
      grad_v_(v_.shape()),
      grad_bias_(bias_.shape()) {
  OPENEI_CHECK(u_.shape().rank() == 2 && v_.shape().rank() == 2,
               "factored dense factors must be rank 2");
  OPENEI_CHECK(u_.shape().dim(1) == v_.shape().dim(0),
               "factored dense inner rank mismatch");
  OPENEI_CHECK(bias_.elements() == v_.shape().dim(1),
               "factored dense bias size mismatch");
}

Tensor FactoredDense::forward(const Tensor& input, bool training) {
  OPENEI_CHECK(input.shape().rank() == 2 &&
                   input.shape().dim(1) == u_.shape().dim(0),
               "factored dense input shape mismatch");
  Tensor intermediate = tensor::matmul(input, u_);
  if (training) {
    cached_input_ = input;
    cached_intermediate_ = intermediate;
  }
  return tensor::add_row_bias(tensor::matmul(intermediate, v_), bias_);
}

Tensor FactoredDense::backward(const Tensor& grad_output) {
  OPENEI_CHECK(cached_input_.shape().rank() == 2,
               "factored dense backward before training forward");
  // dV = (xU)^T dY; dU = x^T (dY V^T); db = col sums; dx = dY V^T U^T.
  grad_v_ += tensor::matmul(tensor::transpose(cached_intermediate_), grad_output);
  Tensor grad_intermediate = tensor::matmul(grad_output, tensor::transpose(v_));
  grad_u_ += tensor::matmul(tensor::transpose(cached_input_), grad_intermediate);
  std::size_t rows = grad_output.shape().dim(0);
  std::size_t cols = grad_output.shape().dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) grad_bias_[c] += grad_output.at2(r, c);
  }
  return tensor::matmul(grad_intermediate, tensor::transpose(u_));
}

Shape FactoredDense::output_shape(const Shape& input) const {
  OPENEI_CHECK(input.rank() == 1 && input.dim(0) == u_.shape().dim(0),
               "factored dense sample shape mismatch");
  return Shape{v_.shape().dim(1)};
}

std::size_t FactoredDense::flops(const Shape& input) const {
  (void)output_shape(input);
  std::size_t r = rank();
  return 2 * u_.shape().dim(0) * r + 2 * r * v_.shape().dim(1);
}

std::unique_ptr<Layer> FactoredDense::clone() const {
  return std::make_unique<FactoredDense>(u_, v_, bias_);
}

common::Json FactoredDense::config() const {
  common::Json cfg{common::JsonObject{}};
  cfg.set("in", u_.shape().dim(0));
  cfg.set("rank", rank());
  cfg.set("out", v_.shape().dim(1));
  return cfg;
}

}  // namespace openei::nn
