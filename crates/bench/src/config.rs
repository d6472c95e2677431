//! Experiment configuration with environment overrides.

/// Shared experiment knobs.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Source blocks `l` (paper reference: 23 968; default scaled: 8 000).
    pub num_blocks: usize,
    /// Independent trials (seeds) per data point.
    pub trials: usize,
    /// Base seed; trial t uses `base_seed + t`.
    pub base_seed: u64,
    /// Worker threads for every sweep. Output does not depend on it.
    pub threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            num_blocks: 8_000,
            trials: 3,
            base_seed: 0x1CD_2002,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl ExpConfig {
    /// Reads `ICD_BLOCKS`, `ICD_TRIALS`, `ICD_SEED` and
    /// `RAYON_NUM_THREADS` from the environment, falling back to the
    /// scaled defaults and the available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(v) = env_usize("ICD_BLOCKS") {
            cfg.num_blocks = v.max(100);
        }
        if let Some(v) = env_usize("ICD_TRIALS") {
            cfg.trials = v.max(1);
        }
        if let Ok(v) = std::env::var("ICD_SEED") {
            if let Ok(parsed) = v.trim().parse::<u64>() {
                cfg.base_seed = parsed;
            }
        }
        if let Some(v) = env_usize("RAYON_NUM_THREADS").filter(|&n| n > 0) {
            cfg.threads = v;
        }
        cfg
    }

    /// The seeds for this configuration.
    #[must_use]
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.trials as u64)
            .map(|t| self.base_seed + t)
            .collect()
    }
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ExpConfig::default();
        assert!(cfg.num_blocks >= 1000);
        assert!(cfg.trials >= 1);
        assert_eq!(cfg.seeds().len(), cfg.trials);
    }

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let cfg = ExpConfig {
            trials: 5,
            ..ExpConfig::default()
        };
        let a = cfg.seeds();
        let b = cfg.seeds();
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.into_iter().collect();
        assert_eq!(set.len(), 5);
    }
}
