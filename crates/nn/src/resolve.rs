//! Layer resolution: the one place that works out what a [`LayerSpec`]
//! does to a given input.
//!
//! [`LayerSpec::resolve`] checks a layer against its input dimensions and
//! returns a [`Resolved`]: the output dimensions, the parameter shapes and
//! the [`Kernel`] with its geometry. Every other piece of code reads that
//! result — [`Sequential::build`] initialises parameters of those shapes,
//! [`Sequential::from_parts`] checks loaded ones against them, the forward
//! and backward passes and the int8 kernels run the kernel, and MAC counts
//! come from it. After resolution a square `Conv2d` and a `Conv2dRect`
//! are the same [`Kernel::Conv2d`]; only serialization tells them apart.
//!
//! [`Sequential::build`]: crate::Sequential::build
//! [`Sequential::from_parts`]: crate::Sequential::from_parts

use crate::layers::conv::{depthwise_macs, Conv1dGeom, Conv2dGeom};
use crate::layers::dense::dense_macs;
use crate::layers::pool::pool_out;
use crate::spec::{Activation, Dims, LayerSpec, Padding};
use crate::{NnError, Result};

/// What a layer computes, with its geometry resolved against its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Fully connected layer.
    Dense {
        /// Output width.
        units: usize,
    },
    /// 1-D convolution.
    Conv1d(Conv1dGeom),
    /// 2-D convolution, square or rectangular.
    Conv2d(Conv2dGeom),
    /// Depthwise 2-D convolution (`out_c == in_c`).
    Depthwise(Conv2dGeom),
    /// Batch normalization with frozen statistics.
    BatchNorm,
    /// Max pooling over `size` windows (1-D when the input has `h == 1`).
    MaxPool {
        /// Window side / length.
        size: usize,
    },
    /// Average pooling with [`Kernel::MaxPool`]'s geometry.
    AvgPool {
        /// Window side / length.
        size: usize,
    },
    /// Global average pooling.
    GlobalAvgPool,
    /// Training-time dropout.
    Dropout {
        /// Fraction of activations zeroed during training.
        rate: f32,
    },
    /// Softmax over the flattened activation.
    Softmax,
    /// Reshape and flatten: the same values under new dimensions.
    Identity,
}

/// A layer resolved against its input by [`LayerSpec::resolve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolved {
    /// Input activation dimensions.
    pub input: Dims,
    /// Output activation dimensions.
    pub output: Dims,
    /// The computation and its geometry.
    pub kernel: Kernel,
    /// The activation fused into the kernel's output.
    pub activation: Activation,
}

impl Resolved {
    /// Dimensions of the weight tensor, or `None` for a layer without
    /// one. A batch norm's rows are gamma, beta, running mean and running
    /// variance.
    pub fn weight_dims(&self) -> Option<Vec<usize>> {
        Some(match self.kernel {
            Kernel::Dense { units } => vec![self.input.len(), units],
            Kernel::Conv1d(g) => vec![g.kernel, g.in_c, g.out_c],
            Kernel::Conv2d(g) => vec![g.kernel_h, g.kernel_w, g.in_c, g.out_c],
            Kernel::Depthwise(g) => vec![g.kernel_h, g.kernel_w, g.in_c],
            Kernel::BatchNorm => vec![4, self.input.c],
            _ => return None,
        })
    }

    /// Length of the bias vector, which is the output channel count, or
    /// `None` for a layer without one.
    pub fn bias_len(&self) -> Option<usize> {
        match self.kernel {
            Kernel::Dense { units } => Some(units),
            Kernel::Conv1d(g) => Some(g.out_c),
            Kernel::Conv2d(g) | Kernel::Depthwise(g) => Some(g.out_c),
            _ => None,
        }
    }
}

impl LayerSpec {
    /// Resolves this layer against `input`: output dimensions, parameter
    /// shapes and kernel geometry.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] (at index 0; a model reports the
    /// layer's position) when the layer is incompatible with its input:
    /// a zero-sized parameter, a kernel or pool window larger than the
    /// activation, a 1-D convolution on 2-D data, a reshape that changes
    /// the element count, a dropout rate outside `[0, 1)`, or an empty or
    /// overflowing activation.
    pub fn resolve(&self, input: Dims) -> Result<Resolved> {
        resolve(self, input).map_err(|reason| NnError::InvalidLayer { index: 0, reason })
    }

    /// Multiply–accumulate count of one forward pass on `input` (0 for a
    /// layer that does not resolve).
    pub fn macs(&self, input: Dims) -> u64 {
        let Ok(r) = self.resolve(input) else { return 0 };
        let n = input.len() as u64;
        match r.kernel {
            Kernel::Dense { units } => dense_macs(input.len(), units),
            Kernel::Conv1d(g) => g.macs(),
            Kernel::Conv2d(g) => g.macs(),
            Kernel::Depthwise(g) => depthwise_macs(g),
            Kernel::MaxPool { .. } | Kernel::AvgPool { .. } | Kernel::GlobalAvgPool => n,
            Kernel::BatchNorm => n * 2,
            Kernel::Softmax => n * 4,
            Kernel::Dropout { .. } | Kernel::Identity => 0,
        }
    }
}

/// Element count of `dims`, or `None` if it is zero or overflows.
pub(crate) fn elems(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)).filter(|&n| n > 0)
}

fn resolve(spec: &LayerSpec, d: Dims) -> std::result::Result<Resolved, String> {
    if elems(&[d.h, d.w, d.c]).is_none() {
        return Err(format!("input {d} is empty or too large"));
    }
    let (kernel, output, activation) = match *spec {
        LayerSpec::Dense { units, activation } => {
            if units == 0 {
                return Err("dense units must be non-zero".into());
            }
            (Kernel::Dense { units }, Dims::new(1, 1, units), activation)
        }
        LayerSpec::Conv1d { filters, kernel, stride, padding, activation } => {
            if d.h != 1 {
                return Err(format!("conv1d requires h == 1, got input {d}"));
            }
            if filters == 0 || kernel == 0 || stride == 0 {
                return Err("conv1d parameters must be non-zero".into());
            }
            let g = Conv1dGeom { in_w: d.w, in_c: d.c, out_c: filters, kernel, stride, padding };
            let (ow, _) = g.output();
            if ow == 0 {
                return Err(format!("kernel {kernel} larger than input width {}", d.w));
            }
            (Kernel::Conv1d(g), Dims::new(1, ow, filters), activation)
        }
        LayerSpec::Conv2d { filters, kernel, stride, padding, activation } => {
            let g = window(d, filters, (kernel, kernel), stride, padding)?;
            (Kernel::Conv2d(g), out_dims(g), activation)
        }
        LayerSpec::Conv2dRect { filters, kernel_h, kernel_w, stride, padding, activation } => {
            let g = window(d, filters, (kernel_h, kernel_w), stride, padding)?;
            (Kernel::Conv2d(g), out_dims(g), activation)
        }
        LayerSpec::DepthwiseConv2d { kernel, stride, padding, activation } => {
            let g = window(d, d.c, (kernel, kernel), stride, padding)?;
            (Kernel::Depthwise(g), out_dims(g), activation)
        }
        LayerSpec::MaxPool { size } => (Kernel::MaxPool { size }, pool(d, size)?, Activation::None),
        LayerSpec::AvgPool { size } => (Kernel::AvgPool { size }, pool(d, size)?, Activation::None),
        LayerSpec::GlobalAvgPool => (Kernel::GlobalAvgPool, Dims::new(1, 1, d.c), Activation::None),
        LayerSpec::Reshape { h, w, c } => {
            let target = Dims::new(h, w, c);
            if elems(&[h, w, c]) != Some(d.len()) {
                return Err(format!(
                    "reshape {target} does not hold the {} elements of {d}",
                    d.len()
                ));
            }
            (Kernel::Identity, target, Activation::None)
        }
        LayerSpec::Flatten => (Kernel::Identity, Dims::new(1, 1, d.len()), Activation::None),
        LayerSpec::Dropout { rate } => {
            if !(0.0..1.0).contains(&rate) {
                return Err(format!("dropout rate {rate} must be in [0, 1)"));
            }
            (Kernel::Dropout { rate }, d, Activation::None)
        }
        LayerSpec::BatchNorm => (Kernel::BatchNorm, d, Activation::None),
        LayerSpec::Softmax => (Kernel::Softmax, d, Activation::None),
    };
    if elems(&[output.h, output.w, output.c]).is_none() {
        return Err(format!("output {output} is empty or too large"));
    }
    Ok(Resolved { input: d, output, kernel, activation })
}

/// The geometry of a 2-D window over `d` with `out_c` output channels.
fn window(
    d: Dims,
    out_c: usize,
    (kernel_h, kernel_w): (usize, usize),
    stride: usize,
    padding: Padding,
) -> std::result::Result<Conv2dGeom, String> {
    if out_c == 0 || kernel_h == 0 || kernel_w == 0 || stride == 0 {
        return Err("convolution parameters must be non-zero".into());
    }
    let g =
        Conv2dGeom { in_h: d.h, in_w: d.w, in_c: d.c, out_c, kernel_h, kernel_w, stride, padding };
    let (oh, ow, _, _) = g.output();
    if oh == 0 || ow == 0 {
        return Err(format!("kernel {kernel_h}x{kernel_w} larger than input {d}"));
    }
    Ok(g)
}

fn out_dims(g: Conv2dGeom) -> Dims {
    let (oh, ow, _, _) = g.output();
    Dims::new(oh, ow, g.out_c)
}

/// Output of a non-overlapping pool: over steps for 1-D input (`h == 1`),
/// over both axes otherwise.
fn pool(d: Dims, size: usize) -> std::result::Result<Dims, String> {
    if size == 0 {
        return Err("pool size must be non-zero".into());
    }
    let oh = if d.h == 1 { 1 } else { pool_out(d.h, size) };
    let ow = pool_out(d.w, size);
    if oh == 0 || ow == 0 {
        return Err(format!("pool size {size} larger than input {d}"));
    }
    Ok(Dims::new(oh, ow, d.c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_and_rect_conv_resolve_to_the_same_kernel() {
        let input = Dims::new(9, 7, 2);
        let square = LayerSpec::Conv2d {
            filters: 3,
            kernel: 3,
            stride: 2,
            padding: Padding::Same,
            activation: Activation::Relu,
        };
        let rect = LayerSpec::Conv2dRect {
            filters: 3,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: Padding::Same,
            activation: Activation::Relu,
        };
        let (s, r) = (square.resolve(input).unwrap(), rect.resolve(input).unwrap());
        assert_eq!(s, r);
        assert_eq!(s.output, Dims::new(5, 4, 3));
        assert_eq!(s.weight_dims(), Some(vec![3, 3, 2, 3]));
        assert_eq!(s.bias_len(), Some(3));
        assert_eq!(square.macs(input), rect.macs(input));
    }

    #[test]
    fn parameter_shapes_per_kind() {
        let flat = Dims::new(1, 1, 12);
        let dense = LayerSpec::Dense { units: 5, activation: Activation::None };
        let r = dense.resolve(flat).unwrap();
        assert_eq!((r.weight_dims(), r.bias_len()), (Some(vec![12, 5]), Some(5)));
        let bn = LayerSpec::BatchNorm.resolve(Dims::new(2, 2, 3)).unwrap();
        assert_eq!((bn.weight_dims(), bn.bias_len()), (Some(vec![4, 3]), None));
        let dw = LayerSpec::DepthwiseConv2d {
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            activation: Activation::None,
        };
        let r = dw.resolve(Dims::new(4, 4, 6)).unwrap();
        assert_eq!((r.output, r.weight_dims()), (Dims::new(2, 2, 6), Some(vec![3, 3, 6])));
        let pool = LayerSpec::MaxPool { size: 2 }.resolve(Dims::new(1, 7, 3)).unwrap();
        assert_eq!((pool.output, pool.weight_dims()), (Dims::new(1, 3, 3), None));
    }

    #[test]
    fn rejects_empty_and_overflowing_activations() {
        let flatten = LayerSpec::Flatten;
        assert!(flatten.resolve(Dims::new(0, 3, 1)).is_err());
        assert!(flatten.resolve(Dims::new(usize::MAX, 2, 1)).is_err());
        let reshape = LayerSpec::Reshape { h: usize::MAX, w: 3, c: 1 };
        assert!(reshape.resolve(Dims::new(1, 3, 1)).is_err());
        let wide = LayerSpec::Conv2d {
            filters: usize::MAX,
            kernel: 1,
            stride: 1,
            padding: Padding::Valid,
            activation: Activation::None,
        };
        assert!(wide.resolve(Dims::new(4, 4, 1)).is_err());
        assert_eq!(flatten.macs(Dims::new(0, 3, 1)), 0);
    }
}
