#include "tensor/im2col.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace advh::ops {

namespace {
void check_geometry(const tensor& input, std::size_t batch_index,
                    const conv_geometry& g) {
  ADVH_CHECK(input.dims().rank() == 4);
  ADVH_CHECK(batch_index < input.dims()[0]);
  ADVH_CHECK(input.dims()[1] == g.in_channels);
  ADVH_CHECK(input.dims()[2] == g.in_h);
  ADVH_CHECK(input.dims()[3] == g.in_w);
  ADVH_CHECK(g.kernel_h > 0 && g.kernel_w > 0 && g.stride > 0);
  ADVH_CHECK(g.in_h + 2 * g.pad >= g.kernel_h);
  ADVH_CHECK(g.in_w + 2 * g.pad >= g.kernel_w);
}
}  // namespace

tensor im2col(const tensor& input, std::size_t batch_index,
              const conv_geometry& g) {
  tensor cols(shape{g.in_channels * g.kernel_h * g.kernel_w,
                    g.out_h() * g.out_w()});
  im2col_into(input, batch_index, g, cols.data().data());
  return cols;
}

void im2col_into(const tensor& input, std::size_t batch_index,
                 const conv_geometry& g, float* cols) {
  check_geometry(input, batch_index, g);
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const float* pi = input.data().data() +
                    batch_index * g.in_channels * g.in_h * g.in_w;

  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        float* out_row = cols + row * oh * ow;
        // Output columns [x_lo, x_hi) read input column x*stride + kw - pad
        // inside [0, in_w); the others read padding.
        const std::size_t end = g.in_w + g.pad;
        const std::size_t x_hi =
            kw >= end ? 0 : std::min(ow, (end - kw + g.stride - 1) / g.stride);
        const std::size_t x_lo = std::min(
            x_hi, kw >= g.pad ? 0 : (g.pad - kw + g.stride - 1) / g.stride);
        for (std::size_t y = 0; y < oh; ++y) {
          float* out = out_row + y * ow;
          // signed because padding can take us off the top/left edge
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            std::fill(out, out + ow, 0.0f);
            continue;
          }
          const float* in_row =
              pi + (c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w;
          std::fill(out, out + x_lo, 0.0f);
          for (std::size_t x = x_lo; x < x_hi; ++x) {
            out[x] = in_row[x * g.stride + kw - g.pad];
          }
          std::fill(out + x_hi, out + ow, 0.0f);
        }
      }
    }
  }
}

void col2im_accumulate(const tensor& cols, std::size_t batch_index,
                       const conv_geometry& g, tensor& grad_input) {
  check_geometry(grad_input, batch_index, g);
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t rows = g.in_channels * g.kernel_h * g.kernel_w;
  ADVH_CHECK(cols.dims().rank() == 2);
  ADVH_CHECK(cols.dims()[0] == rows);
  ADVH_CHECK(cols.dims()[1] == oh * ow);

  const float* pc = cols.data().data();
  float* pi = grad_input.data().data() +
              batch_index * g.in_channels * g.in_h * g.in_w;

  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw) {
        const std::size_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        const float* in_row = pc + row * oh * ow;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            pi[(c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
               static_cast<std::size_t>(ix)] += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace advh::ops
