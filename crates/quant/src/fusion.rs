//! Operator fusion: fold `BatchNorm` into the preceding convolution.
//!
//! Fusing removes the normalization op entirely — the classic inference
//! optimization the paper lists under "operator fusion" (§4.5): with
//! `k = γ / sqrt(σ² + ε)`, the preceding layer's weights become `W·k`
//! (per output channel) and its bias `(b − μ)·k + β`.

use crate::{QuantError, Result};
use ei_nn::model::Layer;
use ei_nn::spec::{LayerSpec, ModelSpec};
use ei_nn::Sequential;

/// Must match the epsilon the `BatchNorm` forward pass uses in `ei-nn`.
const BN_EPS: f32 = 1e-3;

/// Whether a layer's weights end in an output-channel axis that `BatchNorm`
/// scales (i.e. fusion applies): the layers with a bias per output channel.
fn is_fusable(layer: &Layer) -> bool {
    layer.resolve().is_ok_and(|r| r.bias_len().is_some())
}

/// Folds every `BatchNorm` whose predecessor is a convolution or dense
/// layer, returning the fused model and the number of ops removed.
///
/// # Errors
///
/// Returns [`QuantError::UnsupportedLayer`] for a `BatchNorm` with no
/// fusable predecessor (e.g. first layer or after pooling) — such graphs
/// must keep the op and cannot take the fused fast path.
pub fn fold_batch_norm(model: &Sequential) -> Result<(Sequential, usize)> {
    let mut new_layers: Vec<Layer> = Vec::with_capacity(model.layers().len());
    let mut fused = 0usize;
    for layer in model.layers() {
        if layer.spec == LayerSpec::BatchNorm {
            let prev = new_layers.last_mut().filter(|p| is_fusable(p)).ok_or_else(|| {
                QuantError::UnsupportedLayer("batch_norm without a fusable predecessor".into())
            })?;
            let params = layer
                .weights
                .as_ref()
                .ok_or_else(|| QuantError::UnsupportedLayer("batch_norm missing params".into()))?
                .as_f32();
            let c = layer.input.c;
            let (gamma, rest) = params.split_at(c);
            let (beta, rest) = rest.split_at(c);
            let (mean, var) = rest.split_at(c);
            let k: Vec<f32> = gamma.iter().zip(var).map(|(g, v)| g / (v + BN_EPS).sqrt()).collect();
            // output channel is the fastest axis of every fusable weight layout
            if let Some(w) = prev.weights.as_mut() {
                let data = w.as_f32_mut();
                for (i, value) in data.iter_mut().enumerate() {
                    *value *= k[i % c];
                }
            }
            if let Some(b) = prev.bias.as_mut() {
                let data = b.as_f32_mut();
                for (co, value) in data.iter_mut().enumerate() {
                    *value = (*value - mean[co]) * k[co] + beta[co];
                }
            }
            fused += 1;
        } else {
            new_layers.push(layer.clone());
        }
    }
    let mut spec = ModelSpec::new(model.spec().input).named(&model.spec().name);
    for l in &new_layers {
        spec = spec.layer(l.spec.clone());
    }
    let fused_model = Sequential::from_parts(spec, new_layers)?;
    Ok((fused_model, fused))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_nn::spec::{Activation, Dims, LayerSpec, ModelSpec, Padding};

    fn bn_model() -> Sequential {
        let spec = ModelSpec::new(Dims::new(4, 4, 1))
            .layer(LayerSpec::Conv2d {
                filters: 3,
                kernel: 3,
                stride: 1,
                padding: Padding::Same,
                activation: Activation::None,
            })
            .layer(LayerSpec::BatchNorm)
            .layer(LayerSpec::GlobalAvgPool)
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None });
        Sequential::build(&spec, 5).unwrap()
    }

    #[test]
    fn identity_bn_fusion_preserves_outputs() {
        let model = bn_model();
        let (fused, n) = fold_batch_norm(&model).unwrap();
        assert_eq!(n, 1);
        assert_eq!(fused.layers().len(), model.layers().len() - 1);
        let input: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.2).collect();
        let a = model.forward(&input).unwrap();
        let b = fused.forward(&input).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn nontrivial_bn_fusion_preserves_outputs() {
        let mut model = bn_model();
        // give the BN layer non-identity parameters
        {
            let bn = &mut model.layers_mut()[1];
            let params = bn.weights.as_mut().unwrap().as_f32_mut();
            let c = 3;
            for ch in 0..c {
                params[ch] = 1.5 + ch as f32 * 0.3; // gamma
                params[c + ch] = -0.2 * ch as f32; // beta
                params[2 * c + ch] = 0.1 * ch as f32; // mean
                params[3 * c + ch] = 0.5 + 0.25 * ch as f32; // var
            }
        }
        let (fused, _) = fold_batch_norm(&model).unwrap();
        let input: Vec<f32> = (0..16).map(|i| ((i * 3) % 7) as f32 * 0.1 - 0.3).collect();
        let a = model.forward(&input).unwrap();
        let b = fused.forward(&input).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn bn_without_predecessor_rejected() {
        let spec = ModelSpec::new(Dims::new(2, 2, 1)).layer(LayerSpec::BatchNorm);
        let model = Sequential::build(&spec, 0).unwrap();
        assert!(matches!(fold_batch_norm(&model), Err(QuantError::UnsupportedLayer(_))));
    }

    #[test]
    fn model_without_bn_unchanged() {
        let spec = ModelSpec::new(Dims::new(1, 4, 1))
            .layer(LayerSpec::Flatten)
            .layer(LayerSpec::Dense { units: 2, activation: Activation::None });
        let model = Sequential::build(&spec, 0).unwrap();
        let (fused, n) = fold_batch_norm(&model).unwrap();
        assert_eq!(n, 0);
        assert_eq!(fused.layers().len(), 2);
    }

    #[test]
    fn fusion_reduces_mac_count() {
        let model = bn_model();
        let (fused, _) = fold_batch_norm(&model).unwrap();
        assert!(fused.macs() < model.macs());
    }
}
