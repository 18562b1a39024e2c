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
/// Out-of-bounds taps (padding) hold `pad`. Each kernel row's in-bounds
/// taps are contiguous in both the input and the patch row, so they move
/// as one `(kx_hi - kx_lo) * in_c` slice.
pub fn im2col_2d<T: Copy>(input: &[T], g: Conv2dGeom, pad: T) -> Vec<T> {
    let (oh, ow, py, px) = g.output();
    let window = g.kernel_h * g.kernel_w * g.in_c;
    let mut patches = vec![pad; oh * ow * window];
    for oy in 0..oh {
        for ox in 0..ow {
            let row0 = (oy * ow + ox) * window;
            let (kx_lo, kx_hi, x0) = in_bounds(ox * g.stride, px, g.kernel_w, g.in_w);
            if kx_lo == kx_hi {
                continue;
            }
            for ky in 0..g.kernel_h {
                let iy = (oy * g.stride + ky) as isize - py as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    continue;
                }
                let src = ((iy as usize) * g.in_w + x0) * g.in_c;
                let dst = row0 + (ky * g.kernel_w + kx_lo) * g.in_c;
                let len = (kx_hi - kx_lo) * g.in_c;
                patches[dst..dst + len].copy_from_slice(&input[src..src + len]);
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
        let (k_lo, k_hi, x0) = in_bounds(ox * g.stride, pad_begin, g.kernel, g.in_w);
        if k_lo == k_hi {
            continue;
        }
        let src = x0 * g.in_c;
        let dst = ox * window + k_lo * g.in_c;
        let len = (k_hi - k_lo) * g.in_c;
        patches[dst..dst + len].copy_from_slice(&input[src..src + len]);
    }
    patches
}

/// The taps `[lo, hi)` of a `kernel`-wide window starting at padded
/// position `start` (`pad` before the input) that fall inside an input of
/// width `len`, and the input index of tap `lo`.
fn in_bounds(start: usize, pad: usize, kernel: usize, len: usize) -> (usize, usize, usize) {
    let lo = pad.saturating_sub(start).min(kernel);
    let hi = (len + pad).saturating_sub(start).clamp(lo, kernel);
    (lo, hi, (start + lo).saturating_sub(pad))
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

    /// One tap at a time, bounds-checked: the layout the run copies must
    /// reproduce.
    fn per_tap_2d(input: &[i32], g: Conv2dGeom, pad: i32) -> Vec<i32> {
        let (oh, ow, py, px) = g.output();
        let mut rows = Vec::new();
        for oy in 0..oh {
            for ox in 0..ow {
                for ky in 0..g.kernel_h {
                    for kx in 0..g.kernel_w {
                        let iy = (oy * g.stride + ky) as isize - py as isize;
                        let ix = (ox * g.stride + kx) as isize - px as isize;
                        let inside = (0..g.in_h as isize).contains(&iy)
                            && (0..g.in_w as isize).contains(&ix);
                        for ci in 0..g.in_c {
                            rows.push(if inside {
                                input[(iy as usize * g.in_w + ix as usize) * g.in_c + ci]
                            } else {
                                pad
                            });
                        }
                    }
                }
            }
        }
        rows
    }

    #[test]
    fn run_copies_match_per_tap_copies() {
        for padding in [Padding::Same, Padding::Valid] {
            for (in_h, in_w, in_c) in [(5, 7, 1), (4, 3, 2), (9, 2, 3), (1, 6, 1)] {
                for (kernel_h, kernel_w) in [(1, 1), (3, 3), (2, 4), (5, 1), (1, 5)] {
                    for stride in 1..=3 {
                        if padding == Padding::Valid && (kernel_h > in_h || kernel_w > in_w) {
                            continue;
                        }
                        let g = Conv2dGeom {
                            in_h,
                            in_w,
                            in_c,
                            out_c: 1,
                            kernel_h,
                            kernel_w,
                            stride,
                            padding,
                        };
                        let input: Vec<i32> = (1..=(in_h * in_w * in_c) as i32).collect();
                        assert_eq!(im2col_2d(&input, g, -1), per_tap_2d(&input, g, -1), "{g:?}");
                        let g1 =
                            Conv1dGeom { in_w, in_c, out_c: 1, kernel: kernel_w, stride, padding };
                        let as_2d = Conv2dGeom { in_h: 1, kernel_h: 1, ..g };
                        let row = &input[..in_w * in_c];
                        assert_eq!(im2col_1d(row, g1, -1), per_tap_2d(row, as_2d, -1), "{g1:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn int8_padding_uses_zero_point() {
        let g =
            Conv1dGeom { in_w: 3, in_c: 1, out_c: 1, kernel: 3, stride: 1, padding: Padding::Same };
        let patches = im2col_1d(&[10i8, 20, 30], g, -128i8);
        assert_eq!(patches, vec![-128, 10, 20, 10, 20, 30, 20, 30, -128]);
    }
}
