//! Deterministic weight initializers.
//!
//! Training on the platform must be reproducible across runs (paper §2.4
//! calls out the ML reproducibility crisis), so every initializer takes an
//! explicit seed and uses a counter-free, self-contained generator.

use crate::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initialization scheme for a weight tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// Glorot/Xavier uniform: `U(-l, l)` with `l = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// He/Kaiming normal: `N(0, sqrt(2 / fan_in))` — the right choice in
    /// front of ReLU activations.
    HeNormal,
}

/// Creates an `f32` tensor initialized per `init`.
///
/// `fan_in`/`fan_out` are the effective connection counts; for dense layers
/// these are the input/output widths, for convolutions
/// `kernel_elems * in_channels` and `kernel_elems * out_channels`.
///
/// # Example
///
/// ```
/// use ei_tensor::{Shape, init::{Init, init_tensor}};
///
/// # fn main() -> Result<(), ei_tensor::TensorError> {
/// let w = init_tensor(Shape::new(&[16, 8])?, Init::XavierUniform, 16, 8, 42);
/// assert_eq!(w.len(), 128);
/// # Ok(())
/// # }
/// ```
pub fn init_tensor(shape: Shape, init: Init, fan_in: usize, fan_out: usize, seed: u64) -> Tensor {
    let n = shape.len();
    let data: Vec<f32> = match init {
        Init::XavierUniform => {
            let limit = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n).map(|_| rng.gen_range(-limit..=limit)).collect()
        }
        Init::HeNormal => {
            let std = (2.0 / fan_in.max(1) as f32).sqrt();
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n).map(|_| sample_gaussian(&mut rng) * std).collect()
        }
    };
    Tensor::from_f32(shape, data).expect("init buffer length matches shape by construction")
}

/// Samples a standard normal via Box–Muller.
fn sample_gaussian<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = init_tensor(Shape::new(&[8, 8]).unwrap(), Init::XavierUniform, 8, 8, 7);
        let b = init_tensor(Shape::new(&[8, 8]).unwrap(), Init::XavierUniform, 8, 8, 7);
        assert_eq!(a, b);
        let c = init_tensor(Shape::new(&[8, 8]).unwrap(), Init::XavierUniform, 8, 8, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_within_limit() {
        let fan_in = 32;
        let fan_out = 16;
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let t = init_tensor(
            Shape::new(&[fan_in, fan_out]).unwrap(),
            Init::XavierUniform,
            fan_in,
            fan_out,
            1,
        );
        for &x in t.as_f32() {
            assert!(x.abs() <= limit + 1e-6);
        }
    }

    #[test]
    fn he_normal_has_plausible_spread() {
        let fan_in = 64;
        let t = init_tensor(Shape::new(&[64, 64]).unwrap(), Init::HeNormal, fan_in, 64, 3);
        let data = t.as_f32();
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 = data.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / data.len() as f32;
        let expected_var = 2.0 / fan_in as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!(
            (var / expected_var) > 0.5 && (var / expected_var) < 2.0,
            "var {var} vs {expected_var}"
        );
    }
}
