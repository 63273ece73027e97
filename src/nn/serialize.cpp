#include "nn/serialize.h"

#include <fstream>
#include <iterator>
#include <optional>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/factored_conv.h"
#include "nn/residual.h"
#include "tensor/quantize.h"

namespace openei::nn {

namespace {

using common::Json;
using common::JsonArray;
using common::JsonObject;

Json tensor_to_json(const Tensor& t) {
  JsonArray shape;
  for (std::size_t d : t.shape().dims()) shape.emplace_back(d);
  JsonArray values;
  values.reserve(t.elements());
  for (float v : t.data()) values.emplace_back(static_cast<double>(v));
  Json out{JsonObject{}};
  out.set("shape", Json(std::move(shape)));
  out.set("values", Json(std::move(values)));
  return out;
}

Tensor tensor_from_json(const Json& doc) {
  std::vector<std::size_t> dims;
  for (const Json& d : doc.at("shape").as_array()) {
    dims.push_back(static_cast<std::size_t>(d.as_int()));
  }
  const JsonArray& values = doc.at("values").as_array();
  std::vector<float> data;
  data.reserve(values.size());
  for (const Json& v : values) data.push_back(static_cast<float>(v.as_number()));
  return Tensor(tensor::Shape(std::move(dims)), std::move(data));
}

/// int8 payload of a packed weight matrix; the per-row scales / zero point /
/// layout flag travel in the layer config.
Json packed_to_json(const tensor::PackedQuantMatrix& packed) {
  JsonArray shape;
  shape.emplace_back(packed.rows());
  shape.emplace_back(packed.cols());
  JsonArray values;
  values.reserve(packed.data().size());
  for (std::int8_t v : packed.data()) values.emplace_back(static_cast<int>(v));
  Json out{JsonObject{}};
  out.set("shape", Json(std::move(shape)));
  out.set("values", Json(std::move(values)));
  return out;
}

/// `patch_kernel` as in PackedQuantMatrix::pack_rows (0 for a dense layer).
tensor::PackedQuantMatrix packed_from_json(const Json& weights, const Json& cfg,
                                           std::size_t patch_kernel = 0) {
  const JsonArray& shape = weights.at("shape").as_array();
  OPENEI_CHECK(shape.size() == 2, "packed weights must be rank 2");
  auto rows = static_cast<std::size_t>(shape[0].as_int());
  auto cols = static_cast<std::size_t>(shape[1].as_int());
  std::vector<std::int8_t> values;
  values.reserve(rows * cols);
  for (const Json& v : weights.at("values").as_array()) {
    values.push_back(static_cast<std::int8_t>(v.as_int()));
  }
  std::vector<float> scales;
  for (const Json& s : cfg.at("scales").as_array()) {
    scales.push_back(static_cast<float>(s.as_number()));
  }
  auto weight_zero_point =
      cfg.contains("weight_zero_point")
          ? static_cast<std::int32_t>(cfg.at("weight_zero_point").as_int())
          : 0;
  bool per_channel =
      cfg.contains("per_channel") ? cfg.at("per_channel").as_bool() : true;
  return {rows, cols, std::move(values), std::move(scales), weight_zero_point,
          per_channel, patch_kernel};
}

std::optional<tensor::QuantParams> input_params_from_config(const Json& cfg) {
  if (!cfg.contains("input_scale")) return std::nullopt;
  tensor::QuantParams params;
  params.scale = static_cast<float>(cfg.at("input_scale").as_number());
  params.zero_point =
      static_cast<std::int32_t>(cfg.at("input_zero_point").as_int());
  return params;
}

tensor::Conv2dSpec spec_from_config(const Json& cfg, bool depthwise) {
  tensor::Conv2dSpec spec;
  if (depthwise) {
    spec.in_channels = static_cast<std::size_t>(cfg.at("channels").as_int());
    spec.out_channels = spec.in_channels;
  } else {
    spec.in_channels = static_cast<std::size_t>(cfg.at("in_channels").as_int());
    spec.out_channels = static_cast<std::size_t>(cfg.at("out_channels").as_int());
  }
  spec.kernel = static_cast<std::size_t>(cfg.at("kernel").as_int());
  spec.stride = static_cast<std::size_t>(cfg.at("stride").as_int());
  spec.padding = static_cast<std::size_t>(cfg.at("padding").as_int());
  return spec;
}

Json layer_to_json(const Layer& layer);

Json layers_to_json(const std::vector<LayerPtr>& layers) {
  JsonArray out;
  out.reserve(layers.size());
  for (const auto& layer : layers) out.push_back(layer_to_json(*layer));
  return Json(std::move(out));
}

Json layer_to_json(const Layer& layer) {
  Json doc{JsonObject{}};
  doc.set("type", layer.type());
  doc.set("config", layer.config());

  const std::string& type = layer.type();
  if (type == "dense") {
    const auto& dense = dynamic_cast<const Dense&>(layer);
    doc.set("weights", tensor_to_json(dense.weights()));
    doc.set("bias", tensor_to_json(dense.bias()));
  } else if (type == "quantized_dense") {
    const auto& qd = dynamic_cast<const QuantizedDense&>(layer);
    doc.set("weights", packed_to_json(qd.packed_weights()));
    doc.set("bias", tensor_to_json(qd.bias()));
  } else if (type == "quantized_conv2d") {
    const auto& qc = dynamic_cast<const QuantizedConv2d&>(layer);
    doc.set("weights", packed_to_json(qc.packed_weights()));
    doc.set("bias", tensor_to_json(qc.bias()));
  } else if (type == "factored_dense") {
    const auto& fd = dynamic_cast<const FactoredDense&>(layer);
    doc.set("u", tensor_to_json(fd.u()));
    doc.set("v", tensor_to_json(fd.v()));
    doc.set("bias", tensor_to_json(fd.bias()));
  } else if (type == "conv2d") {
    const auto& conv = dynamic_cast<const Conv2d&>(layer);
    doc.set("weights", tensor_to_json(conv.weights()));
    doc.set("bias", tensor_to_json(conv.bias()));
  } else if (type == "depthwise_conv2d") {
    const auto& conv = dynamic_cast<const DepthwiseConv2d&>(layer);
    doc.set("weights", tensor_to_json(conv.weights()));
    doc.set("bias", tensor_to_json(conv.bias()));
  } else if (type == "factored_conv2d") {
    const auto& fc = dynamic_cast<const FactoredConv2d&>(layer);
    doc.set("basis", tensor_to_json(fc.basis().weights()));
    doc.set("mixer", tensor_to_json(fc.mixer().weights()));
    doc.set("bias", tensor_to_json(fc.mixer().bias()));
  } else if (type == "batchnorm") {
    auto& bn = const_cast<BatchNorm&>(dynamic_cast<const BatchNorm&>(layer));
    doc.set("gamma", tensor_to_json(*bn.parameters()[0]));
    doc.set("beta", tensor_to_json(*bn.parameters()[1]));
    doc.set("running_mean", tensor_to_json(bn.running_mean()));
    doc.set("running_var", tensor_to_json(bn.running_var()));
  } else if (type == "residual") {
    const auto& block = dynamic_cast<const ResidualBlock&>(layer);
    doc.set("body", layers_to_json(block.body()));
    doc.set("projection", block.projection() != nullptr
                              ? layer_to_json(*block.projection())
                              : Json(nullptr));
  }
  // Stateless layers (relu, flatten, pools, dropout) carry only config.
  return doc;
}

LayerPtr layer_from_json(const Json& doc);

std::vector<LayerPtr> layers_from_json(const Json& doc) {
  std::vector<LayerPtr> out;
  for (const Json& entry : doc.as_array()) out.push_back(layer_from_json(entry));
  return out;
}

LayerPtr layer_from_json(const Json& doc) {
  const std::string& type = doc.at("type").as_string();
  const Json& cfg = doc.at("config");

  if (type == "dense") {
    return std::make_unique<Dense>(tensor_from_json(doc.at("weights")),
                                   tensor_from_json(doc.at("bias")));
  }
  if (type == "quantized_dense") {
    const Json& weights = doc.at("weights");
    if (cfg.contains("scales")) {
      auto layer = std::make_unique<QuantizedDense>(
          packed_from_json(weights, cfg), tensor_from_json(doc.at("bias")));
      if (auto params = input_params_from_config(cfg)) {
        layer->set_input_params(*params);
      }
      return layer;
    }
    // Legacy per-tensor affine format: weights stored [in, out] with one
    // scale/zero_point pair in the config.
    std::vector<std::size_t> dims;
    for (const Json& d : weights.at("shape").as_array()) {
      dims.push_back(static_cast<std::size_t>(d.as_int()));
    }
    std::vector<std::int8_t> values;
    for (const Json& v : weights.at("values").as_array()) {
      values.push_back(static_cast<std::int8_t>(v.as_int()));
    }
    tensor::QuantParams params;
    params.scale = static_cast<float>(cfg.at("scale").as_number());
    params.zero_point = static_cast<std::int32_t>(cfg.at("zero_point").as_int());
    return std::make_unique<QuantizedDense>(
        tensor::QuantizedTensor(tensor::Shape(std::move(dims)), std::move(values),
                                params),
        tensor_from_json(doc.at("bias")));
  }
  if (type == "quantized_conv2d") {
    tensor::Conv2dSpec spec = spec_from_config(cfg, false);
    auto layer = std::make_unique<QuantizedConv2d>(
        spec, packed_from_json(doc.at("weights"), cfg, spec.kernel),
        tensor_from_json(doc.at("bias")));
    if (auto params = input_params_from_config(cfg)) {
      layer->set_input_params(*params);
    }
    return layer;
  }
  if (type == "factored_dense") {
    return std::make_unique<FactoredDense>(tensor_from_json(doc.at("u")),
                                           tensor_from_json(doc.at("v")),
                                           tensor_from_json(doc.at("bias")));
  }
  if (type == "conv2d") {
    return std::make_unique<Conv2d>(spec_from_config(cfg, false),
                                    tensor_from_json(doc.at("weights")),
                                    tensor_from_json(doc.at("bias")));
  }
  if (type == "depthwise_conv2d") {
    return std::make_unique<DepthwiseConv2d>(spec_from_config(cfg, true),
                                             tensor_from_json(doc.at("weights")),
                                             tensor_from_json(doc.at("bias")));
  }
  if (type == "factored_conv2d") {
    return std::make_unique<FactoredConv2d>(spec_from_config(cfg, false),
                                            tensor_from_json(doc.at("basis")),
                                            tensor_from_json(doc.at("mixer")),
                                            tensor_from_json(doc.at("bias")));
  }
  if (type == "batchnorm") {
    auto bn = std::make_unique<BatchNorm>(
        static_cast<std::size_t>(cfg.at("features").as_int()),
        static_cast<float>(cfg.at("momentum").as_number()),
        static_cast<float>(cfg.at("epsilon").as_number()));
    *bn->parameters()[0] = tensor_from_json(doc.at("gamma"));
    *bn->parameters()[1] = tensor_from_json(doc.at("beta"));
    bn->running_mean() = tensor_from_json(doc.at("running_mean"));
    bn->running_var() = tensor_from_json(doc.at("running_var"));
    return bn;
  }
  if (type == "residual") {
    LayerPtr projection;
    if (!doc.at("projection").is_null()) {
      projection = layer_from_json(doc.at("projection"));
    }
    return std::make_unique<ResidualBlock>(layers_from_json(doc.at("body")),
                                           std::move(projection));
  }
  if (type == "relu") return std::make_unique<Relu>();
  if (type == "sigmoid") return std::make_unique<Sigmoid>();
  if (type == "tanh") return std::make_unique<Tanh>();
  if (type == "flatten") return std::make_unique<Flatten>();
  if (type == "dropout") {
    return std::make_unique<Dropout>(
        static_cast<float>(cfg.at("rate").as_number()),
        static_cast<std::uint64_t>(cfg.at("seed").as_int()));
  }
  if (type == "maxpool2d") {
    return std::make_unique<MaxPool2d>(
        static_cast<std::size_t>(cfg.at("window").as_int()));
  }
  if (type == "avgpool2d") {
    return std::make_unique<AvgPool2d>(
        static_cast<std::size_t>(cfg.at("window").as_int()));
  }
  if (type == "global_avgpool") return std::make_unique<GlobalAvgPool>();

  throw openei::ParseError("unknown layer type '" + type + "'");
}

}  // namespace

Json model_to_json(const Model& model) {
  Json doc{JsonObject{}};
  doc.set("format", "openei-model-v1");
  doc.set("name", model.name());
  JsonArray input_shape;
  for (std::size_t d : model.input_shape().dims()) input_shape.emplace_back(d);
  doc.set("input_shape", Json(std::move(input_shape)));
  JsonArray layers;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    layers.push_back(layer_to_json(model.layer(i)));
  }
  doc.set("layers", Json(std::move(layers)));
  return doc;
}

Model model_from_json(const Json& doc) {
  OPENEI_CHECK(doc.at("format").as_string() == "openei-model-v1",
               "unsupported model format");
  std::vector<std::size_t> dims;
  for (const Json& d : doc.at("input_shape").as_array()) {
    dims.push_back(static_cast<std::size_t>(d.as_int()));
  }
  Model model(doc.at("name").as_string(), tensor::Shape(std::move(dims)));
  for (const Json& layer : doc.at("layers").as_array()) {
    model.add(layer_from_json(layer));
  }
  return model;
}

std::string save_model(const Model& model) { return model_to_json(model).dump(); }

Model load_model(const std::string& text) {
  return model_from_json(Json::parse(text));
}

void save_model_file(const Model& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  out << save_model(model);
  if (!out) throw IoError("write to '" + path + "' failed");
}

Model load_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open '" + path + "' for reading");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return load_model(text);
}

}  // namespace openei::nn
