// Dense vector operations on std::vector<double>.
#pragma once

#include <span>
#include <vector>

namespace lapclique::linalg {

using Vec = std::vector<double>;

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);
[[nodiscard]] double norm2(std::span<const double> a);
[[nodiscard]] double norm_inf(std::span<const double> a);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
void scale(double alpha, std::span<double> x);

[[nodiscard]] Vec add(std::span<const double> a, std::span<const double> b);
[[nodiscard]] Vec sub(std::span<const double> a, std::span<const double> b);

/// Subtract the mean so the vector sums to zero (projection onto the
/// complement of the all-ones kernel of a connected Laplacian).
void project_out_ones(std::span<double> x);

/// Sum of entries.
[[nodiscard]] double sum(std::span<const double> x);

}  // namespace lapclique::linalg
