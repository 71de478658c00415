#ifndef OTIF_NN_GEMM_H_
#define OTIF_NN_GEMM_H_

#include <cstddef>

namespace otif::nn {

/// C = A * B with an optional column bias folded into the accumulator
/// start.
///
///   A: m x k, row-major, leading dimension k
///   B: k x n, row-major, leading dimension n
///   C: m x n, row-major, leading dimension n (fully overwritten)
///   bias_col: length n, added per column of C (pass nullptr for none)
///
/// The bias is the accumulator's *initial* value (0 without one), matching
/// a scalar loop that starts at the bias and accumulates products in
/// ascending-k order.
///
/// Determinism contract: every C[i][j] is produced by one accumulator chain
///   bias + A[i][0]*B[0][j] + A[i][1]*B[1][j] + ... (k ascending)
/// with no reassociation across k, so the result is bit-identical to the
/// naive triple loop regardless of the register-blocking used internally.
/// The conv backward pass relies on this to reproduce the reference loops
/// exactly.
void GemmBias(int m, int n, int k, const float* a, const float* b,
              const float* bias_col, float* c);

/// C += A * B with the shapes above. Every C[i][j]'s chain starts from its
/// current value:
///   C[i][j] + A[i][0]*B[0][j] + A[i][1]*B[1][j] + ... (k ascending)
/// so splitting k into consecutive calls continues the same chain, and a
/// gradient already held in C is accumulated into exactly as a scalar
/// `c += a * b` loop would. Used by the conv backward pass.
void GemmAccumulate(int m, int n, int k, const float* a, const float* b,
                    float* c);

/// Unrolls conv input patches into the im2col panel consumed by the conv
/// backward pass's weight-gradient GEMM.
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

/// One 'same'-padded convolution over an (in_channels, h, w) image: odd
/// kernel, pad = kernel / 2, output (out_channels, oh(), ow()).
struct ConvShape {
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 1;
  int stride = 1;
  int h = 0;
  int w = 0;

  int oh() const { return (h + stride - 1) / stride; }
  int ow() const { return (w + stride - 1) / stride; }
};

/// Floats of scratch ConvDirect needs for its zero-padded input planes.
size_t ConvDirectScratchFloats(const ConvShape& shape);

/// What ConvDirect applies to each input sample as it copies it into its
/// padded planes. The copy happens anyway, so an activation or a staging
/// step folded into it costs no pass of its own. Padding stays +0.
enum class ConvInputMap {
  kIdentity,  // x
  kRelu,      // std::max(0.0f, x): -0 and NaN become +0, as in Relu
  kCenter,    // x - 0.5f: a [0, 1] pixel centred on zero
};

/// Direct convolution, the inference path of Conv2d:
///
///   input:   (in_channels, h, w) row-major; each sample enters as
///            map(sample)
///   weight:  (out_channels, in_channels, kernel, kernel) row-major
///   bias:    out_channels
///   scratch: ConvDirectScratchFloats(shape) floats, fully overwritten
///   out:     (out_channels, oh, ow) row-major, fully overwritten
///
/// Copies the mapped input once into zero-padded planes in `scratch`,
/// split into `stride` column phases so that every tap of adjacent outputs
/// reads contiguous floats, then computes register tiles of 8 independent
/// accumulator vectors: up to 4 output channels x up to 8 output rows x
/// one row of columns (DESIGN.md, "Direct convolution"). Determinism
/// contract: every output is one accumulator chain
///   bias + w[ic=0][0][0]*x + ... (taps (ic, ky, kx) ascending)
/// with each product rounded before it is added (no fused multiply-add),
/// padding taps included as +-0 products: the same chain as GemmBias over
/// the Im2Col panel, so the result is bit-identical to it (and to
/// Conv2d::InferReference over the mapped input, which skips the padding
/// taps; DESIGN.md, "Inference engine").
void ConvDirect(const ConvShape& shape, ConvInputMap map, const float* input,
                const float* weight, const float* bias, float* scratch,
                float* out);

/// The instruction sets ConvDirect's one kernel source is compiled for, in
/// order: a CPU that runs one runs every one before it. All give the same
/// bits.
enum class ConvIsa { kBaseline, kAvx2, kAvx512 };

/// The variant ConvDirect runs, probed once per process: on an x86 build,
/// kAvx512 where the CPU has AVX-512F (CpuHasAvx512f()), else kAvx2 where
/// it has AVX2 (CpuHasAvx2()); kBaseline otherwise.
ConvIsa ConvDirectIsa();

/// ConvDirect through the `isa` variant, so tests can check each one.
/// Requires isa <= ConvDirectIsa().
void ConvDirectWith(ConvIsa isa, const ConvShape& shape, ConvInputMap map,
                    const float* input, const float* weight,
                    const float* bias, float* scratch, float* out);

}  // namespace otif::nn

#endif  // OTIF_NN_GEMM_H_
