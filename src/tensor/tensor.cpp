#include "tensor/tensor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace advh {

tensor::tensor(shape s) : shape_(s), data_(s.numel(), 0.0f) {}

tensor::tensor(shape s, float value) : shape_(s), data_(s.numel(), value) {}

tensor::tensor(shape s, std::vector<float> data)
    : shape_(s), data_(std::move(data)) {
  ADVH_CHECK_MSG(data_.size() == shape_.numel(),
                 "data size does not match shape " + shape_.to_string());
}

tensor tensor::randn(shape s, rng& gen, float stddev) {
  tensor t(s);
  for (auto& v : t.data_) v = static_cast<float>(gen.normal(0.0, stddev));
  return t;
}

tensor tensor::rand_uniform(shape s, rng& gen, float lo, float hi) {
  tensor t(s);
  for (auto& v : t.data_) v = static_cast<float>(gen.uniform(lo, hi));
  return t;
}

float& tensor::operator[](std::size_t i) {
  ADVH_CHECK(i < data_.size());
  return data_[i];
}

float tensor::operator[](std::size_t i) const {
  ADVH_CHECK(i < data_.size());
  return data_[i];
}

float& tensor::at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  ADVH_CHECK(shape_.rank() == 4);
  ADVH_CHECK(n < shape_[0] && c < shape_[1] && h < shape_[2] && w < shape_[3]);
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float tensor::at(std::size_t n, std::size_t c, std::size_t h,
                 std::size_t w) const {
  return const_cast<tensor*>(this)->at(n, c, h, w);
}

float& tensor::at(std::size_t r, std::size_t c) {
  ADVH_CHECK(shape_.rank() == 2);
  ADVH_CHECK(r < shape_[0] && c < shape_[1]);
  return data_[r * shape_[1] + c];
}

float tensor::at(std::size_t r, std::size_t c) const {
  return const_cast<tensor*>(this)->at(r, c);
}

tensor tensor::reshaped(shape s) const {
  ADVH_CHECK_MSG(s.numel() == shape_.numel(),
                 "reshape must preserve element count");
  return tensor(s, data_);
}

void tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace advh
