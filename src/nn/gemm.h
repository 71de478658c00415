#ifndef OTIF_NN_GEMM_H_
#define OTIF_NN_GEMM_H_

#include <cstddef>

namespace otif::nn {

/// C = A * B with an optional bias folded into the accumulator start.
///
///   A: m x k, row-major, leading dimension k
///   B: k x n, row-major, leading dimension n
///   C: m x n, row-major, leading dimension n (fully overwritten)
///   bias_row: length m, added per row of C (pass nullptr for none)
///   bias_col: length n, added per column of C (pass nullptr for none)
///
/// At most one of bias_row / bias_col may be non-null; the bias is the
/// accumulator's *initial* value, matching a scalar loop that starts at the
/// bias and accumulates products in ascending-k order.
///
/// Determinism contract: every C[i][j] is produced by one accumulator chain
///   bias + A[i][0]*B[0][j] + A[i][1]*B[1][j] + ... (k ascending)
/// with no reassociation across k, so the result is bit-identical to the
/// naive triple loop regardless of the register-blocking used internally.
/// The GEMM conv path relies on this to reproduce the reference loops
/// exactly.
void GemmBias(int m, int n, int k, const float* a, const float* b,
              const float* bias_row, const float* bias_col, float* c);

/// C += A * B with the shapes above. Every C[i][j]'s chain starts from its
/// current value:
///   C[i][j] + A[i][0]*B[0][j] + A[i][1]*B[1][j] + ... (k ascending)
/// so splitting k into consecutive calls continues the same chain, and a
/// gradient already held in C is accumulated into exactly as a scalar
/// `c += a * b` loop would. Used by the conv backward pass.
void GemmAccumulate(int m, int n, int k, const float* a, const float* b,
                    float* c);

/// Unrolls conv input patches into the im2col panel consumed by GemmBias.
///
///   input: (channels, h, w) row-major
///   out:   (channels * kernel * kernel) x (oh * ow) row-major
///
/// Row r = (ic * kernel + ky) * kernel + kx holds, for each output position
/// (oy, ox), the input sample at (ic, oy*stride - pad + ky,
/// ox*stride - pad + kx), or 0 where that falls outside the frame ('same'
/// padding, pad = kernel / 2). The row ordering matches the weight layout
/// (out_ch, in_ch, ky, kx), so conv output = weights (M x K) times this
/// panel (K x N) with K accumulated in the same order as the naive loops.
void Im2Col(const float* input, int channels, int h, int w, int kernel,
            int stride, int oh, int ow, float* out);

}  // namespace otif::nn

#endif  // OTIF_NN_GEMM_H_
