//! User-defined processing blocks (paper §4.9 extensibility).
//!
//! The platform lets users "create their own blocks … to transform raw
//! data … \[or\] perform feature extraction via DSP". In the cloud product
//! those are Docker containers; here the same contract is a process-wide
//! registry of factories: implement [`crate::DspBlock`], register a
//! factory under a name, and [`crate::DspConfig::Custom`] configurations
//! (which serialize like any built-in block) will build it anywhere —
//! impulses, the tuner, deployments.

use crate::block::DspBlock;
use crate::{DspError, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Named parameters passed to a custom block factory.
pub type CustomParams = Vec<(String, f32)>;

/// A factory building a block instance from its parameters.
pub type BlockFactory = Arc<dyn Fn(&CustomParams) -> Result<Box<dyn DspBlock>> + Send + Sync>;

fn registry() -> &'static Mutex<HashMap<String, BlockFactory>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, BlockFactory>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registers (or replaces) a custom block factory under `name`.
///
/// Registration is process-wide, mirroring how the platform resolves
/// custom blocks by name at build time.
pub fn register_custom_block(name: &str, factory: BlockFactory) {
    registry().lock().expect("custom block registry poisoned").insert(name.to_string(), factory);
}

/// Builds a registered custom block.
///
/// # Errors
///
/// Returns [`DspError::InvalidConfig`] when no factory is registered under
/// `name`, or whatever error the factory reports for bad parameters.
pub fn build_custom_block(name: &str, params: &CustomParams) -> Result<Box<dyn DspBlock>> {
    let factory =
        registry().lock().expect("custom block registry poisoned").get(name).cloned().ok_or_else(
            || DspError::InvalidConfig(format!("no custom block registered under {name:?}")),
        )?;
    factory(params)
}

/// Lists registered custom block names (sorted).
pub fn custom_block_names() -> Vec<String> {
    let mut names: Vec<String> =
        registry().lock().expect("custom block registry poisoned").keys().cloned().collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{DspConfig, DspCost};

    /// A toy user block: per-chunk energy.
    #[derive(Debug, Clone)]
    struct EnergyBlock {
        chunk: usize,
    }

    impl DspBlock for EnergyBlock {
        fn name(&self) -> &str {
            "energy"
        }
        fn output_len(&self, input_len: usize) -> Result<usize> {
            Ok((input_len / self.chunk).max(1))
        }
        fn output_shape(&self, input_len: usize) -> Result<(usize, usize, usize)> {
            Ok((1, self.output_len(input_len)?, 1))
        }
        fn process(&self, input: &[f32]) -> Result<Vec<f32>> {
            Ok(input
                .chunks(self.chunk)
                .map(|c| c.iter().map(|x| x * x).sum::<f32>() / c.len() as f32)
                .collect())
        }
        fn cost(&self, input_len: usize) -> Result<DspCost> {
            Ok(DspCost {
                flops: input_len as u64 * 2,
                scratch_bytes: 16,
                output_features: self.output_len(input_len)?,
            })
        }
        fn config(&self) -> DspConfig {
            DspConfig::Custom {
                name: "energy".into(),
                params: vec![("chunk".into(), self.chunk as f32)],
            }
        }
    }

    fn register_energy() {
        register_custom_block(
            "energy",
            Arc::new(|params: &CustomParams| {
                let chunk = params
                    .iter()
                    .find(|(k, _)| k == "chunk")
                    .map(|(_, v)| *v as usize)
                    .unwrap_or(0);
                if chunk == 0 {
                    return Err(DspError::InvalidConfig("chunk must be positive".into()));
                }
                Ok(Box::new(EnergyBlock { chunk }) as Box<dyn DspBlock>)
            }),
        );
    }

    #[test]
    fn register_build_and_run() {
        register_energy();
        assert!(custom_block_names().contains(&"energy".to_string()));
        let config =
            DspConfig::Custom { name: "energy".into(), params: vec![("chunk".into(), 4.0)] };
        let block = config.build().unwrap();
        let features = block.process(&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]).unwrap();
        assert_eq!(features, vec![1.0, 4.0]);
        assert_eq!(config.name(), "Custom");
        assert!(config.summary().contains("energy"));
        // serde round trip: custom configs persist like built-ins
        let json = serde_json::to_string(&config).unwrap();
        let back: DspConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        assert!(back.build().is_ok());
    }

    #[test]
    fn unknown_and_invalid_custom_blocks_rejected() {
        let missing = DspConfig::Custom { name: "not-registered".into(), params: vec![] };
        assert!(matches!(missing.build(), Err(DspError::InvalidConfig(_))));
        register_energy();
        let bad_params = DspConfig::Custom { name: "energy".into(), params: vec![] };
        assert!(bad_params.build().is_err());
    }
}
