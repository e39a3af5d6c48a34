// Small fixed-size dense matrix/vector template used by the EKF.
//
// Dimensions are compile-time constants (the filter is 15x15), so everything
// lives on the stack and the compiler can fully unroll the hot loops.
#pragma once

#include <array>
#include <cstddef>
#include <ostream>

#include "math/mat3.h"
#include "math/num.h"
#include "math/vec3.h"

namespace uavres::math {

/// Row-major R x C matrix of doubles with value semantics.
template <int R, int C>
struct Matrix {
  static_assert(R > 0 && C > 0);
  std::array<double, static_cast<std::size_t>(R) * C> d{};

  /// Codec field list (telemetry/binary_io.h): the entries, row-major.
  template <class V>
  friend void Fields(V& v, Matrix& m) {
    v(m.d);
  }

  constexpr double operator()(int r, int c) const { return d[static_cast<std::size_t>(r) * C + c]; }
  constexpr double& operator()(int r, int c) { return d[static_cast<std::size_t>(r) * C + c]; }

  static constexpr Matrix Zero() { return {}; }

  static constexpr Matrix Identity()
    requires(R == C)
  {
    Matrix m;
    for (int i = 0; i < R; ++i) m(i, i) = 1.0;
    return m;
  }

  constexpr Matrix operator+(const Matrix& o) const {
    Matrix r = *this;
    for (std::size_t i = 0; i < d.size(); ++i) r.d[i] += o.d[i];
    return r;
  }

  constexpr Matrix operator-(const Matrix& o) const {
    Matrix r = *this;
    for (std::size_t i = 0; i < d.size(); ++i) r.d[i] -= o.d[i];
    return r;
  }

  constexpr Matrix operator*(double s) const {
    Matrix r = *this;
    for (auto& v : r.d) v *= s;
    return r;
  }

  constexpr Matrix& operator+=(const Matrix& o) {
    for (std::size_t i = 0; i < d.size(); ++i) d[i] += o.d[i];
    return *this;
  }

  constexpr bool operator==(const Matrix&) const = default;

  template <int C2>
  constexpr Matrix<R, C2> operator*(const Matrix<C, C2>& o) const {
    Matrix<R, C2> r;
    for (int i = 0; i < R; ++i) {
      for (int k = 0; k < C; ++k) {
        const double a = (*this)(i, k);
        if (a == 0.0) continue;  // EKF Jacobians are sparse; skip zero rows
        for (int j = 0; j < C2; ++j) r(i, j) += a * o(k, j);
      }
    }
    return r;
  }

  constexpr Matrix<C, R> Transposed() const {
    Matrix<C, R> r;
    for (int i = 0; i < R; ++i)
      for (int j = 0; j < C; ++j) r(j, i) = (*this)(i, j);
    return r;
  }

  /// Force exact symmetry: m = (m + m^T) / 2. Only for square matrices.
  constexpr void Symmetrize()
    requires(R == C)
  {
    for (int i = 0; i < R; ++i)
      for (int j = i + 1; j < C; ++j) {
        const double v = 0.5 * ((*this)(i, j) + (*this)(j, i));
        (*this)(i, j) = v;
        (*this)(j, i) = v;
      }
  }

  constexpr double Trace() const
    requires(R == C)
  {
    double t = 0.0;
    for (int i = 0; i < R; ++i) t += (*this)(i, i);
    return t;
  }

  bool AllFinite() const {
    for (double v : d)
      if (!IsFinite(v)) return false;
    return true;
  }

  /// Write a 3x3 block with top-left corner at (r0, c0).
  constexpr void SetBlock3(int r0, int c0, const Mat3& b) {
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) (*this)(r0 + i, c0 + j) = b(i, j);
  }

  /// Read a 3x3 block with top-left corner at (r0, c0).
  constexpr Mat3 Block3(int r0, int c0) const {
    Mat3 b;
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) b(i, j) = (*this)(r0 + i, c0 + j);
    return b;
  }
};

/// Column vector specialization helpers.
template <int N>
using VecN = Matrix<N, 1>;

template <int N>
constexpr double Dot(const VecN<N>& a, const VecN<N>& b) {
  double s = 0.0;
  for (int i = 0; i < N; ++i) s += a(i, 0) * b(i, 0);
  return s;
}

/// Read a Vec3 out of rows [r0, r0+2] of a column vector.
template <int N>
constexpr Vec3 Segment3(const VecN<N>& v, int r0) {
  return {v(r0, 0), v(r0 + 1, 0), v(r0 + 2, 0)};
}

/// Write a Vec3 into rows [r0, r0+2] of a column vector.
template <int N>
constexpr void SetSegment3(VecN<N>& v, int r0, const Vec3& s) {
  v(r0, 0) = s.x;
  v(r0 + 1, 0) = s.y;
  v(r0 + 2, 0) = s.z;
}

template <int R, int C>
std::ostream& operator<<(std::ostream& os, const Matrix<R, C>& m) {
  for (int i = 0; i < R; ++i) {
    os << '[';
    for (int j = 0; j < C; ++j) os << m(i, j) << (j + 1 < C ? ' ' : ']');
    os << '\n';
  }
  return os;
}

}  // namespace uavres::math
