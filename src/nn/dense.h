// Fully connected layer, plus variants produced by the compression suite:
// a low-rank factored pair and an int8 weight-quantized dense layer.
#pragma once

#include <optional>

#include "nn/layer.h"
#include "tensor/quantize.h"

namespace openei::nn {

/// y = x W + b with W: [in, out].
class Dense : public Layer {
 public:
  /// He/Glorot-style scaled uniform initialization.
  Dense(std::size_t in_features, std::size_t out_features, common::Rng& rng);
  /// Explicit weights (used by deserialization and the compressors).
  Dense(Tensor weights, Tensor bias);

  std::string type() const override { return "dense"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> gradients() override { return {&grad_weights_, &grad_bias_}; }
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override;
  std::unique_ptr<Layer> clone() const override;
  common::Json config() const override;

  std::size_t in_features() const { return weights_.shape().dim(0); }
  std::size_t out_features() const { return weights_.shape().dim(1); }
  const Tensor& weights() const { return weights_; }
  Tensor& weights() { return weights_; }
  const Tensor& bias() const { return bias_; }
  Tensor& bias() { return bias_; }

 private:
  Tensor weights_;  // [in, out]
  Tensor bias_;     // [out]
  Tensor grad_weights_;
  Tensor grad_bias_;
  Tensor cached_input_;  // [N, in], only valid after forward(training=true)
};

/// Dense layer whose weights are stored int8-quantized; inference-only.
/// Weights are packed once at construction (per-output-channel symmetric by
/// default) and forward runs the real int8 GEMM — the paper's "quantized
/// kernels" latency optimization, Sec. IV-B, not just the storage win.
/// Activation parameters are either calibrated (set_input_params from a
/// min/max observer pass) or chosen dynamically per call.
class QuantizedDense : public Layer {
 public:
  /// Packed per-channel weights + float bias (the build-time cached form).
  QuantizedDense(tensor::PackedQuantMatrix packed, Tensor bias);
  /// Legacy per-tensor affine weights stored [in, out]; the exact int8
  /// values are adopted (pre-per-channel serialized models).
  QuantizedDense(tensor::QuantizedTensor weights, Tensor bias);
  /// Quantizes an existing Dense layer's weights (per-channel).
  static std::unique_ptr<QuantizedDense> from_dense(const Dense& dense);

  std::string type() const override { return "quantized_dense"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override;
  std::unique_ptr<Layer> clone() const override;
  common::Json config() const override;

  /// int8 weights + per-row scales + float bias storage footprint.
  std::size_t storage_bytes() const {
    return packed_.storage_bytes() + bias_.size_bytes();
  }
  std::size_t in_features() const { return packed_.cols(); }
  std::size_t out_features() const { return packed_.rows(); }
  std::size_t weight_count() const { return packed_.rows() * packed_.cols(); }
  const tensor::PackedQuantMatrix& packed_weights() const { return packed_; }
  const Tensor& bias() const { return bias_; }

  /// Calibrated input quantization parameters; unset means dynamic (per-call
  /// min/max) quantization.
  const std::optional<tensor::QuantParams>& input_params() const {
    return input_params_;
  }
  void set_input_params(tensor::QuantParams params) { input_params_ = params; }

  /// Parameters actually used to quantize `input` this call (calibrated when
  /// set, else fit to the batch range).
  tensor::QuantParams effective_input_params(const float* input,
                                             std::size_t n) const;

  /// Raw-buffer forward shared by forward() and the forward plan:
  /// quantizes `rows * in_features()` floats into `staging` (caller-provided,
  /// rows * qgemm_row_bytes(in_features()) bytes) as the GEMM's biased
  /// row-major activations, and runs the int8 GEMM (+bias, optional fused
  /// ReLU) into `out` ([rows, out_features()]).
  void forward_into(const float* input, std::size_t rows, std::uint8_t* staging,
                    bool fuse_relu, float* out) const;

 private:
  tensor::PackedQuantMatrix packed_;  // [out, in] int8, row-major
  Tensor bias_;
  std::optional<tensor::QuantParams> input_params_;
};

/// Low-rank factored dense layer: y = (x U) V + b with U: [in, r], V: [r, out].
/// Produced by the SVD low-rank compressor (paper Table I, Denton et al. [25]);
/// trainable, so factored models can be fine-tuned on-device.
class FactoredDense : public Layer {
 public:
  FactoredDense(Tensor u, Tensor v, Tensor bias);

  std::string type() const override { return "factored_dense"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&u_, &v_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_u_, &grad_v_, &grad_bias_};
  }
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override;
  std::unique_ptr<Layer> clone() const override;
  common::Json config() const override;

  std::size_t rank() const { return u_.shape().dim(1); }
  const Tensor& u() const { return u_; }
  const Tensor& v() const { return v_; }
  const Tensor& bias() const { return bias_; }

 private:
  Tensor u_;     // [in, r]
  Tensor v_;     // [r, out]
  Tensor bias_;  // [out]
  Tensor grad_u_;
  Tensor grad_v_;
  Tensor grad_bias_;
  Tensor cached_input_;         // [N, in]
  Tensor cached_intermediate_;  // [N, r]
};

}  // namespace openei::nn
