//! 2-D convolution via im2col and the paper's spatial rewriting.
//!
//! The paper lowers convolutions to matrix multiplication before further
//! lowering to relational operators (§7.1): each image is flattened into a
//! patch matrix `F` and the kernel bank into a matrix `K`, so the convolution
//! becomes `F × Kᵀ`. For the 1×1 kernels of DeepBench-CONV1 and LandCover the
//! patch matrix is exactly the pixel matrix with an appended bias column —
//! that is [`spatial_rewrite_1x1`]. The general path is [`im2col`].
//!
//! Tensors are laid out **NHWC** (channels innermost), which makes every
//! im2col patch a set of contiguous channel runs.

use crate::dense::Tensor;
use crate::error::{Error, Result};
use crate::matmul::matmul_bt_parallel;
use crate::parallel::Parallelism;

/// Static description of a convolution: kernel geometry, stride and padding.
///
/// Kernels are stored `[out_channels, kh, kw, in_channels]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Number of output channels (kernels).
    pub out_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Number of input channels.
    pub in_channels: usize,
    /// Stride in both dimensions (the paper's workloads use stride 1).
    pub stride: usize,
    /// Zero padding in both dimensions (the paper's workloads use 0).
    pub padding: usize,
}

impl Conv2dSpec {
    /// A stride-1, zero-padding spec — the configuration of Table 2.
    pub fn unit(out_channels: usize, kh: usize, kw: usize, in_channels: usize) -> Self {
        Conv2dSpec {
            out_channels,
            kh,
            kw,
            in_channels,
            stride: 1,
            padding: 0,
        }
    }

    /// Output spatial dims for an `h × w` input.
    pub fn output_dims(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let padded = |side: usize| {
            self.padding
                .checked_mul(2)
                .and_then(|pad| side.checked_add(pad))
        };
        let (Some(eh), Some(ew)) = (padded(h), padded(w)) else {
            return Err(Error::InvalidConv(format!(
                "input {h}x{w} padded by {} overflows",
                self.padding
            )));
        };
        if eh < self.kh || ew < self.kw || self.stride == 0 {
            return Err(Error::InvalidConv(format!(
                "kernel {}x{} stride {} does not fit input {h}x{w} pad {}",
                self.kh, self.kw, self.stride, self.padding
            )));
        }
        Ok((
            (eh - self.kh) / self.stride + 1,
            (ew - self.kw) / self.stride + 1,
        ))
    }

    /// Elements of one im2col patch row.
    pub fn patch_len(&self) -> usize {
        self.kh * self.kw * self.in_channels
    }

    /// Validate a kernel tensor against this spec.
    fn check_kernel(&self, kernel: &Tensor) -> Result<()> {
        let want = [self.out_channels, self.kh, self.kw, self.in_channels];
        if kernel.shape().dims() != want {
            return Err(Error::ShapeMismatch {
                op: "conv2d kernel",
                lhs: kernel.shape().dims().to_vec(),
                rhs: want.to_vec(),
            });
        }
        Ok(())
    }

    /// True when the paper's cheap 1×1 spatial rewriting applies.
    pub fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.stride == 1 && self.padding == 0
    }
}

/// Lower an NHWC image batch `[n, h, w, c]` into the im2col patch matrix
/// `[n * oh * ow, kh * kw * c]`.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(Error::InvalidRank {
            op: "im2col",
            expected: 4,
            actual: dims.len(),
        });
    }
    let (n, h, w, c) = (dims[0], dims[1], dims[2], dims[3]);
    if c != spec.in_channels {
        return Err(Error::InvalidConv(format!(
            "input has {c} channels, spec expects {}",
            spec.in_channels
        )));
    }
    let (oh, ow) = spec.output_dims(h, w)?;
    let plen = spec.patch_len();
    let mut out = vec![0.0f32; n * oh * ow * plen];
    let data = input.data();
    let pad = spec.padding as isize;
    for img in 0..n {
        let img_base = img * h * w * c;
        for oy in 0..oh {
            for ox in 0..ow {
                let row_base = ((img * oh + oy) * ow + ox) * plen;
                for ky in 0..spec.kh {
                    let iy = (oy * spec.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue; // zero padding: row already zeroed
                    }
                    for kx in 0..spec.kw {
                        let ix = (ox * spec.stride + kx) as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let src = img_base + ((iy as usize) * w + ix as usize) * c;
                        let dst = row_base + (ky * spec.kw + kx) * c;
                        out[dst..dst + c].copy_from_slice(&data[src..src + c]);
                    }
                }
            }
        }
    }
    Tensor::from_vec([n * oh * ow, plen], out)
}

/// Scatter an im2col patch matrix back into an NHWC image batch — the adjoint
/// of [`im2col`], used by the training extension (§6.1) for conv backward.
pub fn col2im(cols: &Tensor, spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> Result<Tensor> {
    let (oh, ow) = spec.output_dims(h, w)?;
    let plen = spec.patch_len();
    let (rows, width) = cols.shape().as_matrix()?;
    if rows != n * oh * ow || width != plen {
        return Err(Error::ShapeMismatch {
            op: "col2im",
            lhs: cols.shape().dims().to_vec(),
            rhs: vec![n * oh * ow, plen],
        });
    }
    let c = spec.in_channels;
    let mut out = vec![0.0f32; n * h * w * c];
    let data = cols.data();
    let pad = spec.padding as isize;
    for img in 0..n {
        let img_base = img * h * w * c;
        for oy in 0..oh {
            for ox in 0..ow {
                let row_base = ((img * oh + oy) * ow + ox) * plen;
                for ky in 0..spec.kh {
                    let iy = (oy * spec.stride + ky) as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..spec.kw {
                        let ix = (ox * spec.stride + kx) as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let dst = img_base + ((iy as usize) * w + ix as usize) * c;
                        let src = row_base + (ky * spec.kw + kx) * c;
                        for ch in 0..c {
                            out[dst + ch] += data[src + ch];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec([n, h, w, c], out)
}

/// The paper's spatial rewriting for pointwise (1×1, stride-1, unpadded)
/// convolutions: flatten the NHWC batch `[n, h, w, c]` into the pixel matrix
/// `[n * h * w, c + 1]` whose last column is the constant 1 bias slot —
/// the `6,250,000 × (3+1)` matrix of the LandCover example.
pub fn spatial_rewrite_1x1(input: &Tensor) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(Error::InvalidRank {
            op: "spatial_rewrite_1x1",
            expected: 4,
            actual: dims.len(),
        });
    }
    let (n, h, w, c) = (dims[0], dims[1], dims[2], dims[3]);
    let pixels = n * h * w;
    let mut out = vec![0.0f32; pixels * (c + 1)];
    let data = input.data();
    for p in 0..pixels {
        out[p * (c + 1)..p * (c + 1) + c].copy_from_slice(&data[p * c..(p + 1) * c]);
        out[p * (c + 1) + c] = 1.0;
    }
    Tensor::from_vec([pixels, c + 1], out)
}

/// Flatten a kernel bank `[oc, 1, 1, c]` plus bias `[oc]` into the rewriting's
/// `K` matrix `[oc, c + 1]` so that conv ≡ `F × Kᵀ`.
pub fn rewrite_kernel_1x1(kernel: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let dims = kernel.shape().dims();
    if dims.len() != 4 || dims[1] != 1 || dims[2] != 1 {
        return Err(Error::InvalidConv(format!(
            "rewrite_kernel_1x1 needs an [oc,1,1,c] kernel, got {:?}",
            dims
        )));
    }
    let (oc, c) = (dims[0], dims[3]);
    if bias.len() != oc {
        return Err(Error::ShapeMismatch {
            op: "rewrite_kernel_1x1 bias",
            lhs: bias.shape().dims().to_vec(),
            rhs: vec![oc],
        });
    }
    let mut out = vec![0.0f32; oc * (c + 1)];
    for o in 0..oc {
        out[o * (c + 1)..o * (c + 1) + c].copy_from_slice(&kernel.data()[o * c..(o + 1) * c]);
        out[o * (c + 1) + c] = bias.data()[o];
    }
    Tensor::from_vec([oc, c + 1], out)
}

/// Full conv2d forward: NHWC input `[n, h, w, c]`, kernel `[oc, kh, kw, c]`,
/// bias `[oc]` → NHWC output `[n, oh, ow, oc]`.
///
/// Pointwise convolutions take the spatial-rewriting fast path; everything
/// else goes through im2col. Both reduce to `F × Kᵀ` under the caller's
/// parallelism grant.
pub fn conv2d(
    input: &Tensor,
    kernel: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    par: &Parallelism,
) -> Result<Tensor> {
    spec.check_kernel(kernel)?;
    let dims = input.shape().dims();
    if dims.len() != 4 {
        return Err(Error::InvalidRank {
            op: "conv2d",
            expected: 4,
            actual: dims.len(),
        });
    }
    let (n, h, w) = (dims[0], dims[1], dims[2]);
    let (oh, ow) = spec.output_dims(h, w)?;
    let out_mat = if spec.is_pointwise() {
        let f = spatial_rewrite_1x1(input)?;
        let k = rewrite_kernel_1x1(kernel, bias)?;
        matmul_bt_parallel(&f, &k, par)?
    } else {
        let f = im2col(input, spec)?;
        let k = kernel
            .clone()
            .reshape([spec.out_channels, spec.patch_len()])?;
        let mut prod = matmul_bt_parallel(&f, &k, par)?;
        crate::ops::add_bias_inplace(&mut prod, bias)?;
        prod
    };
    out_mat.reshape([n, oh, ow, spec.out_channels])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (quadruple-loop) convolution used as the oracle.
    fn conv2d_reference(
        input: &Tensor,
        kernel: &Tensor,
        bias: &Tensor,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let dims = input.shape().dims();
        let (n, h, w, c) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = spec.output_dims(h, w).unwrap();
        let mut out = vec![0.0f32; n * oh * ow * spec.out_channels];
        let pad = spec.padding as isize;
        for img in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for oc in 0..spec.out_channels {
                        let mut acc = bias.data()[oc];
                        for ky in 0..spec.kh {
                            for kx in 0..spec.kw {
                                let iy = (oy * spec.stride + ky) as isize - pad;
                                let ix = (ox * spec.stride + kx) as isize - pad;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                for ch in 0..c {
                                    let iv = input.data()
                                        [((img * h + iy as usize) * w + ix as usize) * c + ch];
                                    let kv = kernel.data()
                                        [((oc * spec.kh + ky) * spec.kw + kx) * c + ch];
                                    acc += iv * kv;
                                }
                            }
                        }
                        out[((img * oh + oy) * ow + ox) * spec.out_channels + oc] = acc;
                    }
                }
            }
        }
        Tensor::from_vec([n, oh, ow, spec.out_channels], out).unwrap()
    }

    fn seeded(shape: impl Into<crate::Shape>, salt: u32) -> Tensor {
        Tensor::from_fn(shape, |i| {
            (((i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 16) % 17) as f32 * 0.125
                - 1.0
        })
    }

    #[test]
    fn output_dims_basic() {
        let spec = Conv2dSpec::unit(8, 3, 3, 2);
        assert_eq!(spec.output_dims(5, 5).unwrap(), (3, 3));
        let padded = Conv2dSpec { padding: 1, ..spec };
        assert_eq!(padded.output_dims(5, 5).unwrap(), (5, 5));
    }

    #[test]
    fn output_dims_rejects_oversized_kernel() {
        let spec = Conv2dSpec::unit(1, 7, 7, 1);
        assert!(spec.output_dims(5, 5).is_err());
    }

    #[test]
    fn pointwise_detection() {
        assert!(Conv2dSpec::unit(4, 1, 1, 3).is_pointwise());
        assert!(!Conv2dSpec::unit(4, 3, 3, 3).is_pointwise());
        assert!(!Conv2dSpec {
            padding: 1,
            ..Conv2dSpec::unit(4, 1, 1, 3)
        }
        .is_pointwise());
    }

    #[test]
    fn im2col_identity_for_1x1() {
        // For a 1x1 kernel each patch is exactly one pixel's channels.
        let input = seeded([1, 3, 3, 2], 7);
        let spec = Conv2dSpec::unit(4, 1, 1, 2);
        let cols = im2col(&input, &spec).unwrap();
        assert_eq!(cols.shape().dims(), &[9, 2]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn conv2d_matches_reference_3x3() {
        let input = seeded([2, 6, 5, 3], 11);
        let spec = Conv2dSpec::unit(4, 3, 3, 3);
        let kernel = seeded([4, 3, 3, 3], 13);
        let bias = seeded([4], 17);
        let fast = conv2d(&input, &kernel, &bias, &spec, &Parallelism::serial()).unwrap();
        let slow = conv2d_reference(&input, &kernel, &bias, &spec);
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn conv2d_matches_reference_pointwise() {
        let input = seeded([1, 4, 4, 3], 23);
        let spec = Conv2dSpec::unit(5, 1, 1, 3);
        let kernel = seeded([5, 1, 1, 3], 29);
        let bias = seeded([5], 31);
        let fast = conv2d(&input, &kernel, &bias, &spec, &Parallelism::serial()).unwrap();
        let slow = conv2d_reference(&input, &kernel, &bias, &spec);
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn conv2d_matches_reference_with_padding_and_stride() {
        let input = seeded([1, 7, 7, 2], 37);
        let spec = Conv2dSpec {
            out_channels: 3,
            kh: 3,
            kw: 3,
            in_channels: 2,
            stride: 2,
            padding: 1,
        };
        let kernel = seeded([3, 3, 3, 2], 41);
        let bias = Tensor::zeros([3]);
        let fast = conv2d(&input, &kernel, &bias, &spec, &Parallelism::serial()).unwrap();
        let slow = conv2d_reference(&input, &kernel, &bias, &spec);
        assert_eq!(fast.shape().dims(), &[1, 4, 4, 3]);
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn spatial_rewrite_appends_bias_column() {
        let input = seeded([1, 2, 2, 3], 43);
        let f = spatial_rewrite_1x1(&input).unwrap();
        assert_eq!(f.shape().dims(), &[4, 4]);
        for p in 0..4 {
            assert_eq!(f.at2(p, 3).unwrap(), 1.0);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_disjoint_patches() {
        // With stride == kernel size patches do not overlap, so
        // col2im(im2col(x)) == x exactly.
        let input = seeded([1, 4, 4, 2], 47);
        let spec = Conv2dSpec {
            out_channels: 1,
            kh: 2,
            kw: 2,
            in_channels: 2,
            stride: 2,
            padding: 0,
        };
        let cols = im2col(&input, &spec).unwrap();
        let back = col2im(&cols, &spec, 1, 4, 4).unwrap();
        assert!(back.approx_eq(&input, 1e-6));
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // Overlapping 2x2 stride-1 patches: interior pixels appear in several
        // patches and must accumulate.
        let input = Tensor::full([1, 3, 3, 1], 1.0);
        let spec = Conv2dSpec::unit(1, 2, 2, 1);
        let cols = im2col(&input, &spec).unwrap();
        let back = col2im(&cols, &spec, 1, 3, 3).unwrap();
        // Center pixel participates in all four 2x2 patches.
        assert_eq!(back.data()[4], 4.0);
        // Corner pixels participate in exactly one patch.
        assert_eq!(back.data()[0], 1.0);
    }

    #[test]
    fn kernel_shape_is_validated() {
        let input = seeded([1, 4, 4, 3], 53);
        let spec = Conv2dSpec::unit(2, 3, 3, 3);
        let bad_kernel = Tensor::zeros([2, 3, 3, 4]);
        let bias = Tensor::zeros([2]);
        assert!(conv2d(&input, &bad_kernel, &bias, &spec, &Parallelism::serial()).is_err());
    }

    #[test]
    fn deepbench_conv1_shape() {
        // Table 2: 112x112x64 input with 64 1x1x64 kernels keeps spatial dims.
        let spec = Conv2dSpec::unit(64, 1, 1, 64);
        assert_eq!(spec.output_dims(112, 112).unwrap(), (112, 112));
        assert!(spec.is_pointwise());
    }
}
