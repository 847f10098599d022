#pragma once
// Gram matrix of a tensor unfolding: G = X_(n) * X_(n)^T.
//
// This is the flop-dominant kernel of TuckerMPI's Gram-SVD path, computed
// as successive symmetric rank-k updates over the row-major unfolding
// blocks ([6, Alg 2]); mode 0 uses the column-major unfolding directly.
// Forming the Gram matrix squares the condition number -- the source of the
// sqrt(eps) accuracy floor the paper's QR-SVD removes.
//
// Leaf parallelism (DESIGN.md Sec 16): the unfolding's columns are cut into
// the same shape-determined leaves as tensor_lq; each leaf syrks its own
// columns into a partial Gram on the pool, and the partials are summed in
// leaf order. Leaf 0 accumulates into the result; the other partials are
// slices of one frame on the calling thread's arena.

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "common/flops.hpp"
#include "common/precision.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "tensor/tensor.hpp"

namespace tucker::tensor {

/// G = X_(n) X_(n)^T (I_n x I_n, symmetric). With Accum::kNative each
/// leaf is accumulated in working precision exactly like TuckerMPI's
/// syrk-based implementation; Accum::kWide keeps the syrk register tiles
/// in wide_t<T>, spilling at storage width once per k block *and* once per
/// unfolding block (the block loop reuses the partial Gram as its
/// accumulator), which still cuts the Gram's forward error by ~the block
/// depth. Bitwise identical at every thread width.
template <class T>
blas::Matrix<T> gram_of_unfolding(const Tensor<T>& x, std::size_t n,
                                  Accum accum = Accum::kNative) {
  TUCKER_CHECK(n < x.order(), "gram_of_unfolding: mode out of range");
  const index_t m = x.dim(n);
  blas::Matrix<T> g(m, m);
  if (x.size() == 0) return g;
  const UnfoldingLeaves p = unfolding_leaves(x.dims(), n);
  Workspace& ws = Workspace::local();
  auto arena = ws.frame();
  T* partials = ws.get<T>(static_cast<std::size_t>((p.count - 1) * m * m));
  auto partial = [&](index_t leaf) {
    return leaf == 0 ? g.view()
                     : MatView<T>::row_major(partials + (leaf - 1) * m * m,
                                             m, m);
  };

  auto leaf_gram = [&]<class TA>(std::type_identity<TA>, index_t leaf) {
    const index_t lo = p.lo(leaf), hi = p.hi(leaf);
    MatView<T> gl = partial(leaf);
    if (p.single) {
      const MatView<const T> u =
          n == 0 ? unfolding_mode0(x) : unfolding_block(x, n, 0);
      blas::syrk<T, TA>(T(1), u.block(0, lo, m, hi - lo), T(0), gl);
    } else {
      for (index_t j = lo; j < hi; ++j)
        blas::syrk<T, TA>(T(1), unfolding_block(x, n, j),
                          j == lo ? T(0) : T(1), gl);
    }
  };
  auto run_leaf = [&](index_t leaf) {
    if (accum == Accum::kWide) {
      leaf_gram(std::type_identity<wide_t<T>>{}, leaf);
    } else {
      leaf_gram(std::type_identity<T>{}, leaf);
    }
  };
  if (p.count == 1) {
    run_leaf(0);
    return g;
  }
  parallel::parallel_for_chunks(
      0, p.count, 1, [&](index_t leaf, index_t, index_t) { run_leaf(leaf); });
  // Fixed-order sum: G = ((P_0 + P_1) + P_2) + ... at storage width.
  for (index_t leaf = 1; leaf < p.count; ++leaf) {
    const MatView<T> pl = partial(leaf);
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < m; ++j) g(i, j) += pl(i, j);
  }
  add_flops((p.count - 1) * m * m);
  return g;
}

}  // namespace tucker::tensor
