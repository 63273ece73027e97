// Convolutional layers: standard conv2d (im2col-backed, trainable) and the
// depthwise variant underlying MobileNet-style EI models (paper Sec. IV-A2).
#pragma once

#include <optional>

#include "nn/layer.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"

namespace openei::nn {

/// Trainable 2-D convolution over NCHW inputs.
class Conv2d : public Layer {
 public:
  Conv2d(tensor::Conv2dSpec spec, common::Rng& rng);
  Conv2d(tensor::Conv2dSpec spec, Tensor weights, Tensor bias);

  std::string type() const override { return "conv2d"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> gradients() override { return {&grad_weights_, &grad_bias_}; }
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override;
  std::unique_ptr<Layer> clone() const override;
  common::Json config() const override;

  const tensor::Conv2dSpec& spec() const { return spec_; }
  const Tensor& weights() const { return weights_; }
  Tensor& weights() { return weights_; }
  const Tensor& bias() const { return bias_; }
  Tensor& bias() { return bias_; }

 private:
  tensor::Conv2dSpec spec_;
  Tensor weights_;  // [oc, ic, k, k]
  Tensor bias_;     // [oc]
  Tensor grad_weights_;
  Tensor grad_bias_;
  Tensor cached_patches_;     // im2col of the last training input
  Shape cached_input_shape_;  // NCHW of the last training input
};

/// Convolution whose weights are stored int8-packed; inference-only.  The
/// forward path is genuinely quantized (unlike the old fake-quantize
/// round-trip): the channels-last input is quantized once, (kh, kw, c)
/// patches are gathered in int8 (padding gathers the activation zero point
/// — the exact encoding of 0.0), and the packed weights, whose kernel views
/// follow that patch order, run through the int8 GEMM with a fused
/// requantize(+bias)(+ReLU) epilogue.
class QuantizedConv2d : public Layer {
 public:
  /// `packed` must be built with `spec.kernel` as its patch kernel, so its
  /// views are made once, in patch order (PackedQuantMatrix::patch_kernel).
  QuantizedConv2d(tensor::Conv2dSpec spec, tensor::PackedQuantMatrix packed,
                  Tensor bias);
  /// Quantizes an existing Conv2d's weights per-output-channel.
  static std::unique_ptr<QuantizedConv2d> from_conv(const Conv2d& conv);

  std::string type() const override { return "quantized_conv2d"; }
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
  std::size_t weight_count() const { return packed_.rows() * packed_.cols(); }
  const tensor::Conv2dSpec& spec() const { return spec_; }
  const tensor::PackedQuantMatrix& packed_weights() const { return packed_; }
  const Tensor& bias() const { return bias_; }

  /// Calibrated input quantization parameters; unset means dynamic.
  const std::optional<tensor::QuantParams>& input_params() const {
    return input_params_;
  }
  void set_input_params(tensor::QuantParams params) { input_params_ = params; }

  /// Patch staging bytes per output pixel forward_into needs: one qgemm
  /// row of the (kh, kw, c) patch, or 0 for a 1x1, stride-1, unpadded conv
  /// over a multiple of 4 channels, whose quantized input feeds the GEMM as
  /// is.
  std::size_t patch_row_bytes() const;

  /// Raw-buffer forward shared by forward() and the forward plan, over
  /// channels-last activations: `input` is NHWC and `out` receives NHWC
  /// ([n*out_h*out_w, out_c], the GEMM's own output).  Caller provides byte
  /// staging for the quantized input (n*in_h*in_w*in_c) and for the
  /// gathered patches (n*out_h*out_w * patch_row_bytes()).
  void forward_into(const float* input, std::size_t n, std::size_t in_h,
                    std::size_t in_w, std::uint8_t* input_staging,
                    std::uint8_t* patch_staging, bool fuse_relu,
                    float* out) const;

 private:
  tensor::Conv2dSpec spec_;
  tensor::PackedQuantMatrix packed_;  // [oc, ic*k*k] int8, (c, kh, kw) columns
  Tensor bias_;                       // [oc]
  std::optional<tensor::QuantParams> input_params_;
};

/// Trainable depthwise 2-D convolution (one filter per channel).
class DepthwiseConv2d : public Layer {
 public:
  DepthwiseConv2d(tensor::Conv2dSpec spec, common::Rng& rng);
  DepthwiseConv2d(tensor::Conv2dSpec spec, Tensor weights, Tensor bias);

  std::string type() const override { return "depthwise_conv2d"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> gradients() override { return {&grad_weights_, &grad_bias_}; }
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override;
  std::unique_ptr<Layer> clone() const override;
  common::Json config() const override;

  const tensor::Conv2dSpec& spec() const { return spec_; }
  const Tensor& weights() const { return weights_; }
  Tensor& weights() { return weights_; }
  const Tensor& bias() const { return bias_; }

 private:
  tensor::Conv2dSpec spec_;
  Tensor weights_;  // [C, 1, k, k]
  Tensor bias_;     // [C]
  Tensor grad_weights_;
  Tensor grad_bias_;
  Tensor cached_input_;
};

/// Max pooling (window == stride); caches winner indices for backward.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  std::string type() const override { return "maxpool2d"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override { return input.elements(); }
  std::unique_ptr<Layer> clone() const override;
  common::Json config() const override;

  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  Shape cached_input_shape_;
  std::vector<std::size_t> winner_flat_;  // flat input index per output element
};

/// Average pooling (window == stride).
class AvgPool2d : public Layer {
 public:
  explicit AvgPool2d(std::size_t window);

  std::string type() const override { return "avgpool2d"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override { return input.elements(); }
  std::unique_ptr<Layer> clone() const override;
  common::Json config() const override;

  std::size_t window() const { return window_; }

 private:
  std::size_t window_;
  Shape cached_input_shape_;
};

/// Global average pooling: NCHW -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  std::string type() const override { return "global_avgpool"; }
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input) const override;
  std::size_t flops(const Shape& input) const override { return input.elements(); }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GlobalAvgPool>();
  }
  common::Json config() const override { return common::Json(common::JsonObject{}); }

 private:
  Shape cached_input_shape_;
};

}  // namespace openei::nn
