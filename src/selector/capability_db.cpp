#include "selector/capability_db.h"

#include <algorithm>
#include <chrono>

#include "nn/train.h"
#include "runtime/inference.h"

namespace openei::selector {

namespace {

/// Median wall-clock latency of `reps` single-sample inferences through a
/// real InferenceSession (first sample of `test` as the probe input).  One
/// warmup call grows the session's scratch buffers so the measured loop runs
/// at steady state.
double measure_latency_s(const nn::Model& model,
                         const hwsim::PackageSpec& package,
                         const hwsim::DeviceProfile& device,
                         const data::Dataset& test, std::size_t reps) {
  std::vector<std::size_t> dims{1};
  for (std::size_t d : model.input_shape().dims()) dims.push_back(d);
  nn::Tensor sample{tensor::Shape(dims)};
  auto src = test.features.data();
  auto dst = sample.data();
  std::copy(src.begin(), src.begin() + static_cast<long>(dst.size()),
            dst.begin());

  runtime::InferenceSession session(model.clone(), package, device);
  session.run(sample);  // warmup: plans/grows buffers outside the timed loop

  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    session.run(sample);
    auto stop = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(stop - start).count());
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

CapabilityEntry estimate_capability(const nn::Model& model, double accuracy,
                                    const hwsim::PackageSpec& package,
                                    const hwsim::DeviceProfile& device) {
  CapabilityEntry entry;
  entry.model_name = model.name();
  entry.package_name = package.name;
  entry.device_name = device.name;
  hwsim::InferenceCost cost = hwsim::estimate_inference(model, package, device);
  entry.alem.accuracy = accuracy;
  entry.alem.latency_s = cost.latency_s;
  entry.alem.energy_j = cost.energy_j;
  entry.alem.memory_bytes = cost.memory_bytes;
  entry.deployable = cost.memory_bytes <= device.ram_bytes;
  return entry;
}

CapabilityEntry profile(const nn::Model& model, const hwsim::PackageSpec& package,
                        const hwsim::DeviceProfile& device,
                        const data::Dataset& test,
                        const ProfileOptions& options) {
  test.check();
  CapabilityEntry entry;
  entry.model_name = model.name();
  entry.package_name = package.name;
  entry.device_name = device.name;

  hwsim::InferenceCost cost = hwsim::estimate_inference(model, package, device);
  entry.alem.latency_s = cost.latency_s;
  entry.alem.energy_j = cost.energy_j;
  entry.alem.memory_bytes = cost.memory_bytes;
  entry.deployable = cost.memory_bytes <= device.ram_bytes;

  nn::Model copy = model.clone();
  entry.alem.accuracy = nn::evaluate_accuracy(copy, test);

  if (options.measure_latency && entry.deployable && options.reps > 0) {
    entry.measured_latency_s =
        measure_latency_s(model, package, device, test, options.reps);
    entry.alem.latency_s = entry.measured_latency_s;
  }
  return entry;
}

CapabilityDatabase CapabilityDatabase::build(
    const std::vector<nn::Model>& models,
    const std::vector<hwsim::PackageSpec>& packages,
    const std::vector<hwsim::DeviceProfile>& devices, const data::Dataset& test) {
  CapabilityDatabase db;
  for (const nn::Model& model : models) {
    // Accuracy is device/package independent; profile it once per model.
    nn::Model copy = model.clone();
    double accuracy = nn::evaluate_accuracy(copy, test);
    for (const hwsim::PackageSpec& package : packages) {
      for (const hwsim::DeviceProfile& device : devices) {
        CapabilityEntry entry;
        entry.model_name = model.name();
        entry.package_name = package.name;
        entry.device_name = device.name;
        hwsim::InferenceCost cost =
            hwsim::estimate_inference(model, package, device);
        entry.alem.accuracy = accuracy;
        entry.alem.latency_s = cost.latency_s;
        entry.alem.energy_j = cost.energy_j;
        entry.alem.memory_bytes = cost.memory_bytes;
        entry.deployable = cost.memory_bytes <= device.ram_bytes;
        db.add(std::move(entry));
      }
    }
  }
  return db;
}

std::vector<CapabilityEntry> CapabilityDatabase::on_device(
    const std::string& device_name) const {
  std::vector<CapabilityEntry> out;
  for (const CapabilityEntry& entry : entries_) {
    if (entry.device_name == device_name) out.push_back(entry);
  }
  return out;
}

common::Json CapabilityDatabase::to_json() const {
  common::JsonArray rows;
  for (const CapabilityEntry& entry : entries_) {
    common::Json row{common::JsonObject{}};
    row.set("model", entry.model_name);
    row.set("package", entry.package_name);
    row.set("device", entry.device_name);
    row.set("alem", entry.alem.to_json());
    row.set("deployable", entry.deployable);
    if (entry.measured_latency_s > 0.0) {
      row.set("measured_latency_s", entry.measured_latency_s);
    }
    rows.push_back(std::move(row));
  }
  return common::Json(std::move(rows));
}

CapabilityDatabase CapabilityDatabase::from_json(const common::Json& doc) {
  CapabilityDatabase db;
  for (const common::Json& row : doc.as_array()) {
    CapabilityEntry entry;
    entry.model_name = row.at("model").as_string();
    entry.package_name = row.at("package").as_string();
    entry.device_name = row.at("device").as_string();
    const common::Json& alem = row.at("alem");
    entry.alem.accuracy = alem.at("accuracy").as_number();
    entry.alem.latency_s = alem.at("latency_s").as_number();
    entry.alem.energy_j = alem.at("energy_j").as_number();
    entry.alem.memory_bytes =
        static_cast<std::size_t>(alem.at("memory_bytes").as_int());
    entry.deployable = row.at("deployable").as_bool();
    if (row.contains("measured_latency_s")) {
      entry.measured_latency_s = row.at("measured_latency_s").as_number();
    }
    db.add(std::move(entry));
  }
  return db;
}

}  // namespace openei::selector
