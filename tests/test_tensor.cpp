// Unit + property tests for src/tensor: shapes, tensors, kernels, quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace openei::tensor {
namespace {

using openei::common::Rng;

TEST(ShapeTest, ElementsAndStrides) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3U);
  EXPECT_EQ(s.elements(), 24U);
  auto strides = s.strides();
  ASSERT_EQ(strides.size(), 3U);
  EXPECT_EQ(strides[0], 12U);
  EXPECT_EQ(strides[1], 4U);
  EXPECT_EQ(strides[2], 1U);
}

TEST(ShapeTest, RejectsZeroDims) {
  EXPECT_THROW(Shape({2, 0, 3}), openei::InvalidArgument);
}

TEST(ShapeTest, ElementCountOverflowIsRejected) {
  EXPECT_THROW(Shape({SIZE_MAX / 2, 3}), openei::InvalidArgument);
}

TEST(ShapeTest, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0U);
  EXPECT_EQ(s.elements(), 1U);
}

TEST(ShapeTest, EqualityAndToString) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_EQ(Shape({2, 3}).to_string(), "[2, 3]");
}

TEST(TensorTest, ConstructionAndFill) {
  Tensor z = Tensor::zeros(Shape{2, 2});
  EXPECT_FLOAT_EQ(z.sum(), 0.0F);
  Tensor o = Tensor::ones(Shape{2, 2});
  EXPECT_FLOAT_EQ(o.sum(), 4.0F);
  Tensor f = Tensor::full(Shape{3}, 2.5F);
  EXPECT_FLOAT_EQ(f.mean(), 2.5F);
}

TEST(TensorTest, DataSizeMustMatchShape) {
  EXPECT_THROW(Tensor(Shape{2, 2}, {1.0F, 2.0F}), openei::InvalidArgument);
}

TEST(TensorTest, ElementAccessAndBounds) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(t.at2(1, 2), 6.0F);
  t.at2(0, 0) = 9.0F;
  EXPECT_FLOAT_EQ(t[0], 9.0F);
  EXPECT_THROW(t.at2(2, 0), openei::InvalidArgument);
  EXPECT_THROW(t[6], openei::InvalidArgument);
  EXPECT_THROW(t.at4(0, 0, 0, 0), openei::InvalidArgument);
}

TEST(TensorTest, ReshapePreservesDataRejectsBadCount) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_FLOAT_EQ(r.at2(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped(Shape{4, 2}), openei::InvalidArgument);
}

TEST(TensorTest, ArithmeticOperators) {
  Tensor a(Shape{2}, {1, 2});
  Tensor b(Shape{2}, {3, 4});
  EXPECT_TRUE((a + b).all_close(Tensor(Shape{2}, {4, 6})));
  EXPECT_TRUE((b - a).all_close(Tensor(Shape{2}, {2, 2})));
  EXPECT_TRUE((a * b).all_close(Tensor(Shape{2}, {3, 8})));
  EXPECT_TRUE((a * 2.0F).all_close(Tensor(Shape{2}, {2, 4})));
  EXPECT_THROW(a += Tensor(Shape{3}), openei::InvalidArgument);
}

TEST(TensorTest, Reductions) {
  Tensor t(Shape{4}, {-1, 3, 0, 2});
  EXPECT_FLOAT_EQ(t.sum(), 4.0F);
  EXPECT_FLOAT_EQ(t.mean(), 1.0F);
  EXPECT_FLOAT_EQ(t.min(), -1.0F);
  EXPECT_FLOAT_EQ(t.max(), 3.0F);
  EXPECT_EQ(t.argmax(), 1U);
  EXPECT_FLOAT_EQ(t.norm(), std::sqrt(14.0F));
  EXPECT_EQ(t.count_near_zero(), 1U);
}

TEST(TensorTest, RandomTensorsAreSeedDeterministic) {
  Rng rng1(5);
  Rng rng2(5);
  Tensor a = Tensor::random_normal(Shape{16}, rng1);
  Tensor b = Tensor::random_normal(Shape{16}, rng2);
  EXPECT_EQ(a, b);
}

TEST(OpsTest, MatmulSmallKnownValues) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_TRUE(c.all_close(Tensor(Shape{2, 2}, {58, 64, 139, 154})));
}

TEST(OpsTest, MatmulRejectsBadShapes) {
  EXPECT_THROW(matmul(Tensor(Shape{2, 3}), Tensor(Shape{2, 3})),
               openei::InvalidArgument);
  EXPECT_THROW(matmul(Tensor(Shape{2}), Tensor(Shape{2, 2})),
               openei::InvalidArgument);
}

TEST(OpsTest, TransposeInvolution) {
  Rng rng(1);
  Tensor a = Tensor::random_uniform(Shape{3, 5}, rng);
  EXPECT_EQ(transpose(transpose(a)), a);
}

TEST(OpsTest, MatmulAssociatesWithTranspose) {
  // (A B)^T == B^T A^T — a structural identity that exercises both kernels.
  Rng rng(2);
  Tensor a = Tensor::random_uniform(Shape{4, 3}, rng);
  Tensor b = Tensor::random_uniform(Shape{3, 5}, rng);
  Tensor lhs = transpose(matmul(a, b));
  Tensor rhs = matmul(transpose(b), transpose(a));
  EXPECT_TRUE(lhs.all_close(rhs, 1e-4F));
}

TEST(OpsTest, AddRowBias) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor bias(Shape{2}, {10, 20});
  EXPECT_TRUE(add_row_bias(a, bias).all_close(Tensor(Shape{2, 2}, {11, 22, 13, 24})));
}

TEST(OpsTest, ConvSpecOutputSize) {
  Conv2dSpec spec;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  EXPECT_EQ(spec.out_size(8), 8U);  // same-padding
  spec.stride = 2;
  spec.padding = 0;
  EXPECT_EQ(spec.out_size(8), 3U);
  spec.kernel = 9;
  EXPECT_THROW(spec.out_size(4), openei::InvalidArgument);
}

TEST(OpsTest, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input channel.
  Rng rng(3);
  Tensor input = Tensor::random_uniform(Shape{1, 1, 4, 4}, rng);
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  spec.kernel = 1;
  Tensor w = Tensor::ones(Shape{1, 1, 1, 1});
  Tensor b = Tensor::zeros(Shape{1});
  Tensor out = conv2d(input, w, b, spec);
  EXPECT_TRUE(out.all_close(input));
}

TEST(OpsTest, Conv2dKnownSum) {
  // All-ones 2x2 kernel on a 3x3 ramp sums each window.
  Tensor input(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Conv2dSpec spec;
  spec.kernel = 2;
  Tensor w = Tensor::ones(Shape{1, 1, 2, 2});
  Tensor b = Tensor::zeros(Shape{1});
  Tensor out = conv2d(input, w, b, spec);
  EXPECT_TRUE(out.all_close(Tensor(Shape{1, 1, 2, 2}, {12, 16, 24, 28})));
}

// Property: direct convolution equals im2col+matmul over a parameter sweep.
struct ConvCase {
  std::size_t in_c, out_c, hw, kernel, stride, padding;
};

class ConvEquivalence : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvEquivalence, DirectMatchesIm2col) {
  const ConvCase& c = GetParam();
  Rng rng(17);
  Tensor input = Tensor::random_uniform(Shape{2, c.in_c, c.hw, c.hw}, rng);
  Conv2dSpec spec;
  spec.in_channels = c.in_c;
  spec.out_channels = c.out_c;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  Tensor w = Tensor::random_uniform(Shape{c.out_c, c.in_c, c.kernel, c.kernel}, rng);
  Tensor b = Tensor::random_uniform(Shape{c.out_c}, rng);
  Tensor direct = conv2d(input, w, b, spec);
  Tensor via_im2col = conv2d_im2col(input, w, b, spec);
  EXPECT_TRUE(direct.all_close(via_im2col, 1e-4F))
      << "in_c=" << c.in_c << " out_c=" << c.out_c << " hw=" << c.hw;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvEquivalence,
    ::testing::Values(ConvCase{1, 1, 5, 3, 1, 0}, ConvCase{3, 4, 6, 3, 1, 1},
                      ConvCase{2, 2, 8, 3, 2, 1}, ConvCase{4, 8, 7, 1, 1, 0},
                      ConvCase{2, 3, 9, 5, 2, 2}, ConvCase{1, 6, 4, 2, 2, 0}));

// The channels-last gather holds the NCHW gather's values, each patch
// permuted from (c, kh, kw) to (kh, kw, c) order: every ConvEquivalence
// geometry plus non-square inputs, three images each.
TEST(ChannelsLastTest, Im2colNhwcIsPermutedIm2col) {
  struct Case {
    std::size_t in_c, h, w, kernel, stride, padding;
  };
  std::vector<Case> cases;
  for (const ConvCase& c : {ConvCase{1, 1, 5, 3, 1, 0}, ConvCase{3, 4, 6, 3, 1, 1},
                            ConvCase{2, 2, 8, 3, 2, 1}, ConvCase{4, 8, 7, 1, 1, 0},
                            ConvCase{2, 3, 9, 5, 2, 2}, ConvCase{1, 6, 4, 2, 2, 0}}) {
    cases.push_back({c.in_c, c.hw, c.hw, c.kernel, c.stride, c.padding});
  }
  cases.push_back({3, 7, 5, 3, 1, 1});
  cases.push_back({2, 6, 9, 3, 2, 1});
  cases.push_back({4, 5, 8, 5, 1, 2});
  cases.push_back({3, 4, 9, 2, 2, 0});
  cases.push_back({5, 9, 4, 1, 1, 0});
  const std::size_t n = 3;
  for (const Case& c : cases) {
    Conv2dSpec spec;
    spec.in_channels = c.in_c;
    spec.kernel = c.kernel;
    spec.stride = c.stride;
    spec.padding = c.padding;
    Rng rng(29 + c.h * 10 + c.w);
    Tensor input = Tensor::random_uniform(Shape{n, c.in_c, c.h, c.w}, rng);
    std::vector<float> nhwc(input.elements());
    gather_to_nhwc(input.data().data(), n, c.in_c, c.h * c.w, nhwc.data());
    const std::size_t rows = n * spec.out_size(c.h) * spec.out_size(c.w);
    const std::size_t patch = c.in_c * c.kernel * c.kernel;
    std::vector<float> chw_rows(rows * patch);
    std::vector<float> hwc_rows(rows * patch);
    im2col_into(input.data().data(), n, c.h, c.w, spec, chw_rows.data());
    im2col_nhwc_into(nhwc.data(), n, c.h, c.w, spec, hwc_rows.data());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t ch = 0; ch < c.in_c; ++ch) {
        for (std::size_t kh = 0; kh < c.kernel; ++kh) {
          for (std::size_t kw = 0; kw < c.kernel; ++kw) {
            ASSERT_EQ(hwc_rows[r * patch + (kh * c.kernel + kw) * c.in_c + ch],
                      chw_rows[r * patch + (ch * c.kernel + kh) * c.kernel + kw])
                << c.h << "x" << c.w << " k" << c.kernel << " s" << c.stride
                << " row " << r;
          }
        }
      }
    }
  }
}

TEST(ChannelsLastTest, Im2colConvMatchesDirectOnNonSquareInputs) {
  Rng rng(31);
  Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 5;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  Tensor input = Tensor::random_uniform(Shape{3, 3, 7, 10}, rng);
  Tensor w = Tensor::random_uniform(Shape{5, 3, 3, 3}, rng);
  Tensor b = Tensor::random_uniform(Shape{5}, rng);
  Tensor via_im2col = conv2d_im2col(input, w, b, spec);
  EXPECT_EQ(via_im2col.shape(), Shape({3, 5, 4, 5}));
  EXPECT_TRUE(conv2d(input, w, b, spec).all_close(via_im2col, 1e-4F));
}

// The channels-last kernels behind the Tensor routes and the forward arena
// keep each element's arithmetic: equal, bit for bit, to plain NCHW loops.
TEST(ChannelsLastTest, SharedKernelsMatchNchwLoopsBitwise) {
  Rng rng(37);
  const std::size_t n = 2, c = 3, h = 6, w = 8;
  Tensor input = Tensor::random_uniform(Shape{n, c, h, w}, rng, -2.0F, 2.0F);
  auto at = [&](std::size_t b, std::size_t ch, long y, long x) {
    bool inside = y >= 0 && x >= 0 && y < static_cast<long>(h) &&
                  x < static_cast<long>(w);
    return inside ? input.at4(b, ch, static_cast<std::size_t>(y),
                              static_cast<std::size_t>(x))
                  : 0.0F;
  };
  Conv2dSpec spec;
  spec.in_channels = c;
  spec.out_channels = c;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  Tensor dw_w = Tensor::random_uniform(Shape{c, 1, 3, 3}, rng);
  Tensor dw_b = Tensor::random_uniform(Shape{c}, rng);
  Tensor dw = depthwise_conv2d(input, dw_w, dw_b, spec);
  Tensor mx = maxpool2d(input, 2);
  Tensor av = avgpool2d(input, 2);
  Tensor gap = global_avgpool(input);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < dw.shape().dim(2); ++y) {
        for (std::size_t x = 0; x < dw.shape().dim(3); ++x) {
          double acc = dw_b[ch];
          for (std::size_t kh = 0; kh < 3; ++kh) {
            for (std::size_t kw = 0; kw < 3; ++kw) {
              acc += static_cast<double>(at(b, ch, static_cast<long>(y * 2 + kh) - 1,
                                            static_cast<long>(x * 2 + kw) - 1)) *
                     dw_w.at4(ch, 0, kh, kw);
            }
          }
          ASSERT_EQ(dw.at4(b, ch, y, x), static_cast<float>(acc));
        }
      }
      for (std::size_t y = 0; y < h / 2; ++y) {
        for (std::size_t x = 0; x < w / 2; ++x) {
          float best = input.at4(b, ch, 2 * y, 2 * x);
          float sum = 0.0F;
          for (std::size_t kh = 0; kh < 2; ++kh) {
            for (std::size_t kw = 0; kw < 2; ++kw) {
              float v = input.at4(b, ch, 2 * y + kh, 2 * x + kw);
              if (v > best) best = v;
              sum = sum + v;
            }
          }
          sum /= 4.0F;
          ASSERT_EQ(mx.at4(b, ch, y, x), best);
          ASSERT_EQ(av.at4(b, ch, y, x), sum);
        }
      }
      double acc = 0.0;
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) acc += input.at4(b, ch, y, x);
      }
      ASSERT_EQ(gap.at2(b, ch), static_cast<float>(acc / static_cast<double>(h * w)));
    }
  }
}

TEST(OpsTest, DepthwiseConvMatchesPerChannelConv) {
  // Depthwise conv on channel c equals a 1-channel full conv with that
  // channel's filter.
  Rng rng(23);
  std::size_t channels = 3;
  Tensor input = Tensor::random_uniform(Shape{1, channels, 6, 6}, rng);
  Tensor w = Tensor::random_uniform(Shape{channels, 1, 3, 3}, rng);
  Tensor b = Tensor::random_uniform(Shape{channels}, rng);
  Conv2dSpec spec;
  spec.in_channels = channels;
  spec.kernel = 3;
  spec.padding = 1;
  Tensor dw = depthwise_conv2d(input, w, b, spec);

  for (std::size_t c = 0; c < channels; ++c) {
    Tensor one_input(Shape{1, 1, 6, 6});
    for (std::size_t h = 0; h < 6; ++h) {
      for (std::size_t wdx = 0; wdx < 6; ++wdx) {
        one_input.at4(0, 0, h, wdx) = input.at4(0, c, h, wdx);
      }
    }
    Tensor one_w(Shape{1, 1, 3, 3});
    for (std::size_t kh = 0; kh < 3; ++kh) {
      for (std::size_t kw = 0; kw < 3; ++kw) {
        one_w.at4(0, 0, kh, kw) = w.at4(c, 0, kh, kw);
      }
    }
    Tensor one_b(Shape{1}, {b[c]});
    Conv2dSpec one_spec;
    one_spec.in_channels = 1;
    one_spec.out_channels = 1;
    one_spec.kernel = 3;
    one_spec.padding = 1;
    Tensor ref = conv2d(one_input, one_w, one_b, one_spec);
    for (std::size_t h = 0; h < 6; ++h) {
      for (std::size_t wdx = 0; wdx < 6; ++wdx) {
        EXPECT_NEAR(dw.at4(0, c, h, wdx), ref.at4(0, 0, h, wdx), 1e-4F);
      }
    }
  }
}

TEST(OpsTest, MaxAndAvgPooling) {
  Tensor input(Shape{1, 1, 4, 4},
               {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  Tensor mx = maxpool2d(input, 2);
  EXPECT_TRUE(mx.all_close(Tensor(Shape{1, 1, 2, 2}, {6, 8, 14, 16})));
  Tensor av = avgpool2d(input, 2);
  EXPECT_TRUE(av.all_close(Tensor(Shape{1, 1, 2, 2}, {3.5, 5.5, 11.5, 13.5})));
}

TEST(OpsTest, PoolingRejectsOversizedWindow) {
  EXPECT_THROW(maxpool2d(Tensor(Shape{1, 1, 2, 2}), 3), openei::InvalidArgument);
}

TEST(OpsTest, GlobalAvgPool) {
  Tensor input(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor out = global_avgpool(input);
  EXPECT_TRUE(out.all_close(Tensor(Shape{1, 2}, {2.5, 25})));
}

TEST(OpsTest, SoftmaxRowsSumToOneAndOrderPreserved) {
  Tensor logits(Shape{2, 3}, {1, 2, 3, -1, 5, 0});
  Tensor p = softmax_rows(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0F;
    for (std::size_t c = 0; c < 3; ++c) sum += p.at2(r, c);
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
  EXPECT_GT(p.at2(0, 2), p.at2(0, 1));
  EXPECT_GT(p.at2(1, 1), p.at2(1, 0));
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor a(Shape{1, 3}, {1000, 1001, 1002});  // would overflow naive exp
  Tensor p = softmax_rows(a);
  Tensor b(Shape{1, 3}, {0, 1, 2});
  EXPECT_TRUE(p.all_close(softmax_rows(b), 1e-5F));
}

TEST(OpsTest, OneHot) {
  Tensor oh = one_hot({2, 0}, 3);
  EXPECT_TRUE(oh.all_close(Tensor(Shape{2, 3}, {0, 0, 1, 1, 0, 0})));
  EXPECT_THROW(one_hot({3}, 3), openei::InvalidArgument);
}

TEST(OpsTest, ConcatAndSliceRowsRoundTrip) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b(Shape{1, 2}, {5, 6});
  Tensor cat = concat_rows({a, b});
  EXPECT_EQ(cat.shape(), Shape({3, 2}));
  EXPECT_EQ(slice_rows(cat, 0, 2), a);
  EXPECT_EQ(slice_rows(cat, 2, 3), b);
  EXPECT_THROW(slice_rows(cat, 2, 2), openei::InvalidArgument);
  EXPECT_THROW(concat_rows({a, Tensor(Shape{1, 3})}), openei::InvalidArgument);
}

TEST(QuantizeTest, ParamsCoverRangeIncludingZero) {
  QuantParams p = QuantParams::choose(0.5F, 2.0F);
  // Range is widened to include zero; zero must be exactly representable.
  float zero_q = std::round(0.0F / p.scale) + static_cast<float>(p.zero_point);
  EXPECT_GE(zero_q, -128.0F);
  EXPECT_LE(zero_q, 127.0F);
}

TEST(QuantizeTest, QuantizeDequantizeSmallError) {
  Rng rng(31);
  Tensor t = Tensor::random_uniform(Shape{64}, rng, -2.0F, 2.0F);
  QuantizedTensor q = QuantizedTensor::quantize(t);
  Tensor back = q.dequantize();
  float max_err = quantization_step_error(q.params());
  for (std::size_t i = 0; i < t.elements(); ++i) {
    EXPECT_NEAR(back[i], t[i], max_err + 1e-6F);
  }
}

TEST(QuantizeTest, StorageIsQuarterOfFloat) {
  Tensor t = Tensor::zeros(Shape{100});
  QuantizedTensor q = QuantizedTensor::quantize(t);
  EXPECT_EQ(q.size_bytes() * 4, t.size_bytes());
}

TEST(QuantizeTest, ConstantTensorQuantizesExactly) {
  Tensor t = Tensor::zeros(Shape{8});
  QuantizedTensor q = QuantizedTensor::quantize(t);
  EXPECT_TRUE(q.dequantize().all_close(t, 1e-6F));
}

// Property: quantized matmul approximates float matmul with bounded error.
class QuantMatmulProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantMatmulProperty, ApproximatesFloatMatmul) {
  std::size_t k = GetParam();
  Rng rng(41 + k);
  Tensor a = Tensor::random_uniform(Shape{4, k}, rng, -1.0F, 1.0F);
  Tensor b = Tensor::random_uniform(Shape{k, 5}, rng, -1.0F, 1.0F);
  Tensor exact = matmul(a, b);
  QuantizedTensor qa = QuantizedTensor::quantize(a);
  QuantizedTensor qb = QuantizedTensor::quantize(b);
  Tensor approx = quantized_matmul(qa, qb);
  // Error per product term is bounded by step errors; accumulate over k.
  float tol =
      static_cast<float>(k) * 2.5F *
      (quantization_step_error(qa.params()) + quantization_step_error(qb.params()));
  for (std::size_t i = 0; i < exact.elements(); ++i) {
    EXPECT_NEAR(approx[i], exact[i], tol) << "k=" << k << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantMatmulProperty,
                         ::testing::Values(1, 2, 8, 32, 128));

}  // namespace
}  // namespace openei::tensor
