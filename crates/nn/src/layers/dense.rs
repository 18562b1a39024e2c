//! Fully connected layer kernels.

/// Forward pass into `out` (`units` long): `out[j] = b[j] + sum_i in[i] *
/// w[i * units + j]`, accumulated in input order and skipping zero inputs.
///
/// # Panics
///
/// Debug-asserts that the buffer lengths are consistent.
pub fn dense_forward(input: &[f32], weights: &[f32], bias: &[f32], out: &mut [f32]) {
    let units = out.len();
    debug_assert_eq!(weights.len(), input.len() * units);
    debug_assert_eq!(bias.len(), units);
    out.copy_from_slice(bias);
    for (&x, row) in input.iter().zip(weights.chunks_exact(units.max(1))) {
        if x == 0.0 {
            continue;
        }
        for (o, &w) in out.iter_mut().zip(row) {
            *o += x * w;
        }
    }
}

/// Backward pass.
///
/// Given the upstream gradient `grad_out` (w.r.t. the layer's pre-activation
/// output), produces the gradient w.r.t. the input plus parameter gradients.
///
/// Returns `(grad_in, grad_weights, grad_bias)`.
pub fn dense_backward(
    input: &[f32],
    weights: &[f32],
    units: usize,
    grad_out: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    debug_assert_eq!(grad_out.len(), units);
    let n_in = input.len();
    let mut grad_in = vec![0.0f32; n_in];
    let mut grad_w = vec![0.0f32; weights.len()];
    for i in 0..n_in {
        let row = &weights[i * units..(i + 1) * units];
        let grow = &mut grad_w[i * units..(i + 1) * units];
        let x = input[i];
        let mut acc = 0.0f32;
        for j in 0..units {
            acc += row[j] * grad_out[j];
            grow[j] = x * grad_out[j];
        }
        grad_in[i] = acc;
    }
    (grad_in, grad_w, grad_out.to_vec())
}

/// Multiply–accumulate count of one dense forward pass.
pub fn dense_macs(inputs: usize, units: usize) -> u64 {
    inputs as u64 * units as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        // 2 inputs, 2 units; w = [[1,2],[3,4]] row-major by input
        let mut out = [f32::NAN; 2];
        dense_forward(&[1.0, 2.0], &[1.0, 2.0, 3.0, 4.0], &[0.5, -0.5], &mut out);
        assert_eq!(out, [1.0 + 6.0 + 0.5, 2.0 + 8.0 - 0.5]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let input = [0.3f32, -0.7, 1.1];
        let weights = [0.1f32, -0.2, 0.4, 0.05, -0.6, 0.3];
        let bias = [0.0f32, 0.0];
        let units = 2;
        // scalar loss = sum(out)
        let grad_out = [1.0f32, 1.0];
        let (grad_in, grad_w, grad_b) = dense_backward(&input, &weights, units, &grad_out);
        let eps = 1e-3f32;
        let loss = |inp: &[f32], w: &[f32]| -> f32 {
            let mut out = [0.0; 2];
            dense_forward(inp, w, &bias, &mut out);
            out.iter().sum()
        };
        for i in 0..input.len() {
            let mut plus = input;
            plus[i] += eps;
            let mut minus = input;
            minus[i] -= eps;
            let num = (loss(&plus, &weights) - loss(&minus, &weights)) / (2.0 * eps);
            assert!((num - grad_in[i]).abs() < 1e-2, "input grad {i}: {num} vs {}", grad_in[i]);
        }
        for k in 0..weights.len() {
            let mut plus = weights;
            plus[k] += eps;
            let mut minus = weights;
            minus[k] -= eps;
            let num = (loss(&input, &plus) - loss(&input, &minus)) / (2.0 * eps);
            assert!((num - grad_w[k]).abs() < 1e-2, "weight grad {k}: {num} vs {}", grad_w[k]);
        }
        assert_eq!(grad_b, grad_out.to_vec());
    }

    #[test]
    fn macs_counted() {
        assert_eq!(dense_macs(640, 10), 6400);
    }
}
