// The one exception both LDL^T kernels (DenseLdlt, SparseLdlt) throw when a
// pivot collapses.
#pragma once

#include <stdexcept>

namespace lapclique::linalg {

/// A pivot's magnitude was not above min_pivot (or it was NaN): the matrix
/// is not SPD enough to factor without pivoting.  A distinct type so a
/// caller with a fallback (the max-flow IPM degrades to Dinic) can catch it
/// without catching every std::runtime_error.
class PivotCollapse : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace lapclique::linalg
