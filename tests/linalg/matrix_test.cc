#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"

namespace pdx {
namespace {

TEST(MatrixTest, ConstructsZeroed) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) ASSERT_EQ(m.At(r, c), 0.0f);
  }
}

TEST(MatrixTest, IdentityDiagonal) {
  Matrix id = Matrix::Identity(5);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      ASSERT_EQ(id.At(r, c), r == c ? 1.0f : 0.0f);
    }
  }
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix m(2, 3);
  float v = 1.0f;
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) m.At(r, c) = v++;
  }
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) ASSERT_EQ(t.At(c, r), m.At(r, c));
  }
  Matrix back = t.Transposed();
  EXPECT_DOUBLE_EQ(back.FrobeniusDistance(m), 0.0);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  Matrix b(2, 2);
  b.At(0, 0) = 5;
  b.At(0, 1) = 6;
  b.At(1, 0) = 7;
  b.At(1, 1) = 8;
  Matrix c = a.Multiply(b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 50.0f);
}

TEST(MatrixTest, MultiplyByIdentity) {
  Rng rng(1);
  Matrix m(4, 4);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      m.At(r, c) = static_cast<float>(rng.Gaussian());
    }
  }
  Matrix out = m.Multiply(Matrix::Identity(4));
  EXPECT_LT(out.FrobeniusDistance(m), 1e-6);
}

TEST(MatrixTest, ApplyMatVec) {
  Matrix m(2, 3);
  // Row 0 = [1 0 2], row 1 = [0 3 0].
  m.At(0, 0) = 1;
  m.At(0, 2) = 2;
  m.At(1, 1) = 3;
  const std::vector<float> x = {10.0f, 20.0f, 30.0f};
  const std::vector<float> y = m.Apply(x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], 70.0f);
  EXPECT_FLOAT_EQ(y[1], 60.0f);
}

TEST(MatrixTest, OrthogonalityErrorOfIdentity) {
  EXPECT_LT(Matrix::Identity(8).OrthogonalityError(), 1e-7);
}

TEST(MatrixTest, OrthogonalityErrorDetectsScaling) {
  Matrix m = Matrix::Identity(4);
  m.At(0, 0) = 2.0f;  // Column norm becomes 2.
  EXPECT_NEAR(m.OrthogonalityError(), 3.0, 1e-6);
}

TEST(MatrixTest, ProjectBatchMatchesApply) {
  Rng rng(2);
  const size_t in_dim = 17;
  const size_t out_dim = 9;
  const size_t count = 23;
  Matrix proj(out_dim, in_dim);
  for (size_t r = 0; r < out_dim; ++r) {
    for (size_t c = 0; c < in_dim; ++c) {
      proj.At(r, c) = static_cast<float>(rng.Gaussian());
    }
  }
  std::vector<float> data(count * in_dim);
  for (float& v : data) v = static_cast<float>(rng.Gaussian());

  std::vector<float> batch(count * out_dim);
  ProjectBatch(proj, data.data(), count, batch.data());

  std::vector<float> row_out(out_dim);
  for (size_t i = 0; i < count; ++i) {
    proj.Apply(data.data() + i * in_dim, row_out.data());
    for (size_t j = 0; j < out_dim; ++j) {
      ASSERT_NEAR(batch[i * out_dim + j], row_out[j], 1e-3)
          << "row " << i << " col " << j;
    }
  }
}

TEST(MatrixTest, ProjectBatchEqualsRowByRowPretransposedApply) {
  // ProjectBatch spreads its rows over the shared pool; each row must get
  // the bits of the same i-k-j arithmetic run row after row on one thread.
  // ApplyPretransposed is that arithmetic, compiled with the library's
  // flags, so FMA contraction (PDX_MARCH_NATIVE) agrees on both sides.
  Rng rng(3);
  const size_t in_dim = 40;
  const size_t out_dim = 24;
  const size_t count = 3001;
  Matrix proj(out_dim, in_dim);
  for (size_t r = 0; r < out_dim; ++r) {
    for (size_t c = 0; c < in_dim; ++c) {
      proj.At(r, c) = static_cast<float>(rng.Gaussian());
    }
  }
  std::vector<float> data(count * in_dim);
  for (float& v : data) v = static_cast<float>(rng.Gaussian());

  std::vector<float> batch(count * out_dim);
  ProjectBatch(proj, data.data(), count, batch.data());

  const Matrix proj_t = proj.Transposed();
  std::vector<float> serial(count * out_dim);
  for (size_t i = 0; i < count; ++i) {
    ApplyPretransposed(proj_t, data.data() + i * in_dim,
                       serial.data() + i * out_dim);
  }
  EXPECT_EQ(std::memcmp(batch.data(), serial.data(),
                        serial.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace pdx
