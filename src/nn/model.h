// Sequential model — the unit that OpenEI's package manager executes, the
// model selector ranks, and libei serves.
//
// A model owns its layers, knows its sample input shape, and exposes the
// introspection the ALEM cost models need: parameter count, FLOPs per sample,
// and storage bytes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace openei::nn {

class Model {
 public:
  /// `input_shape` is the per-sample shape (e.g. {3, 16, 16} or {64}).
  Model(std::string name, Shape input_shape);
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Deep copy.
  Model clone() const;

  /// Appends a layer; validates that it accepts the current output shape.
  Model& add(LayerPtr layer);

  /// Replaces layer `index` with `layer` (shape-checked against neighbours).
  /// Used by the compressors to swap dense layers for factored/quantized ones.
  void replace_layer(std::size_t index, LayerPtr layer);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Shape& input_shape() const { return input_shape_; }
  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t index);
  const Layer& layer(std::size_t index) const;
  const std::vector<LayerPtr>& layers() const { return layers_; }

  /// Full forward pass over a batch ([N, ...input_shape]).
  Tensor forward(const Tensor& batch, bool training = false);

  /// Backward pass (after forward(training=true)); returns input gradient.
  Tensor backward(const Tensor& grad_output);

  /// Forward through layers [0, k) only — the DDNN-style split point used by
  /// edge-edge distributed inference (src/collab).
  Tensor forward_prefix(const Tensor& batch, std::size_t k);
  /// Forward through layers [k, end).
  Tensor forward_suffix(const Tensor& intermediate, std::size_t k);

  /// Class predictions: argmax per row of the final (logit) output.
  std::vector<std::size_t> predict(const Tensor& batch);

  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();
  void zero_gradients();

  /// Per-sample output shape.
  Shape output_shape() const;
  /// Sample shape after layer `k` (k == layer_count() gives output_shape).
  Shape shape_after(std::size_t k) const;

  std::size_t param_count() const;
  /// FLOPs for one sample.
  std::size_t flops_per_sample() const;
  /// Serialized weight footprint in bytes (quantized layers report their
  /// compact size).
  std::size_t storage_bytes() const;

  /// Human-readable architecture table: one row per layer with output
  /// shape, parameter count, and FLOPs, plus totals.
  std::string summary() const;

 private:
  std::string name_;
  Shape input_shape_;
  std::vector<LayerPtr> layers_;
};

}  // namespace openei::nn
