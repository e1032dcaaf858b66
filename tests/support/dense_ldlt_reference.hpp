// Row-major dense LDL^T: the textbook row-oriented form of the kernel
// linalg::DenseLdlt runs column-oriented.  Each L(i,j) is one serial
// dot-product chain along rows i and j, every multiplier is applied (zeros
// included), and L is kept twice (row-major and transposed).  It is the
// bitwise reference DenseLdlt's factor and solves are tested against.
#pragma once

#include <span>
#include <vector>

namespace lapclique::test {

class DenseLdltReference {
 public:
  DenseLdltReference() = default;

  /// `dense` is row-major n*n; only its lower triangle and diagonal are read.
  /// Throws std::invalid_argument on a size mismatch and std::runtime_error
  /// when a pivot's magnitude is not above `min_pivot`.
  static DenseLdltReference factor(int n, std::span<const double> dense,
                                   double min_pivot = 1e-300);

  void solve_inplace(std::span<double> x) const;

 private:
  int n_ = 0;
  std::vector<double> l_;   ///< unit lower triangle, row-major packed n*n
  std::vector<double> lt_;  ///< transpose of l_ (row i = column i of L)
  std::vector<double> d_;   ///< diagonal of D
};

}  // namespace lapclique::test
