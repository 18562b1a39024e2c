//! im2col lowering: materialize convolution windows as GEMM operand rows.
//!
//! Each output pixel of a convolution consumes one `kernel_h × kernel_w ×
//! in_c` window of the input; writing those windows out as the rows of an
//! `(out_pixels × window)` matrix turns the convolution into a single
//! matrix multiply against the `(window × out_c)` weight matrix — exactly
//! the layout `ei-nn` already stores weights in. The blocked GEMM in
//! [`ei_tensor::gemm`] then does the arithmetic.
//!
//! Bitwise parity with the naive kernels in [`super::conv`] rests on two
//! invariants that every function here maintains:
//!
//! * **Column order is `(ky, kx, ci)` ascending** — the same order the
//!   naive loop nest walks a window in, so each output element sees the
//!   identical `f32` accumulation sequence.
//! * **Out-of-bounds taps hold the caller's `pad` value** — `0.0` for
//!   float (the GEMM's zero-skip drops them exactly like the naive
//!   bounds check does), the input zero-point for int8 (so
//!   `(x - zero_point) * w == 0` contributes nothing to the integer
//!   accumulator).
//!
//! The cost is memory: a patch matrix is `out_pixels × window` elements,
//! a `kernel_h * kernel_w`-fold blowup of the input at stride 1. These
//! buffers are transient scratch, allocated per forward call and dropped
//! before the next layer runs, so they never enter the arena plan that
//! sizes device RAM (see DESIGN.md "Kernel layer").

use super::conv::{Conv1dGeom, Conv2dGeom};

/// Rows of `(kernel_h * kernel_w * in_c)` input taps, one per output
/// pixel of a 2-D convolution, in `(ky, kx, ci)` column order.
///
/// Out-of-bounds taps (padding) hold `pad`.
pub fn im2col_2d<T: Copy>(input: &[T], g: Conv2dGeom, pad: T) -> Vec<T> {
    let (oh, ow, py, px) = g.output();
    let window = g.kernel_h * g.kernel_w * g.in_c;
    let mut patches = vec![pad; oh * ow * window];
    for oy in 0..oh {
        for ox in 0..ow {
            let row0 = (oy * ow + ox) * window;
            for ky in 0..g.kernel_h {
                let iy = (oy * g.stride + ky) as isize - py as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    continue;
                }
                for kx in 0..g.kernel_w {
                    let ix = (ox * g.stride + kx) as isize - px as isize;
                    if ix < 0 || ix as usize >= g.in_w {
                        continue;
                    }
                    let src = ((iy as usize) * g.in_w + ix as usize) * g.in_c;
                    let dst = row0 + (ky * g.kernel_w + kx) * g.in_c;
                    patches[dst..dst + g.in_c].copy_from_slice(&input[src..src + g.in_c]);
                }
            }
        }
    }
    patches
}

/// Rows of `(kernel * in_c)` input taps, one per output step of a 1-D
/// convolution, in `(k, ci)` column order.
///
/// Out-of-bounds taps (padding) hold `pad`.
pub fn im2col_1d<T: Copy>(input: &[T], g: Conv1dGeom, pad: T) -> Vec<T> {
    let (ow, pad_begin) = g.output();
    let window = g.kernel * g.in_c;
    let mut patches = vec![pad; ow * window];
    for ox in 0..ow {
        let row0 = ox * window;
        for k in 0..g.kernel {
            let ix = (ox * g.stride + k) as isize - pad_begin as isize;
            if ix < 0 || ix as usize >= g.in_w {
                continue;
            }
            let src = (ix as usize) * g.in_c;
            let dst = row0 + k * g.in_c;
            patches[dst..dst + g.in_c].copy_from_slice(&input[src..src + g.in_c]);
        }
    }
    patches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Padding;

    #[test]
    fn valid_padding_rows_are_plain_windows() {
        // 3x3 single-channel ramp, 2x2 kernel, valid: 4 windows
        let g = Conv2dGeom {
            in_h: 3,
            in_w: 3,
            in_c: 1,
            out_c: 1,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            padding: Padding::Valid,
        };
        let input: Vec<f32> = (0..9).map(|x| x as f32).collect();
        let patches = im2col_2d(&input, g, 0.0f32);
        assert_eq!(patches.len(), 4 * 4);
        assert_eq!(&patches[0..4], &[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(&patches[12..16], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn same_padding_fills_pad_value() {
        let g = Conv2dGeom {
            in_h: 2,
            in_w: 2,
            in_c: 1,
            out_c: 1,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: Padding::Same,
        };
        let input = [1.0f32, 2.0, 3.0, 4.0];
        let patches = im2col_2d(&input, g, -9.0f32);
        // top-left output pixel: row/col -1 are padding
        assert_eq!(&patches[0..3], &[-9.0, -9.0, -9.0]);
        assert_eq!(patches[4], 1.0); // center tap = input[0]
    }

    #[test]
    fn int8_padding_uses_zero_point() {
        let g =
            Conv1dGeom { in_w: 3, in_c: 1, out_c: 1, kernel: 3, stride: 1, padding: Padding::Same };
        let patches = im2col_1d(&[10i8, 20, 30], g, -128i8);
        assert_eq!(patches, vec![-128, 10, 20, 10, 20, 30, 20, 30, -128]);
    }
}
