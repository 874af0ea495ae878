//! [`SplitJoinConfig`]: the shared [`JoinConfig`] plus the
//! SplitJoin-specific extensions.

use std::ops::{Deref, DerefMut};

use crate::config::{JoinConfig, JoinParams};

/// Default hot-key promotion factor (see
/// [`SplitJoinConfig::hot_key_factor`]): a key is split once it exceeds
/// half a fair share of the routed traffic.
pub const DEFAULT_HOT_KEY_FACTOR: f64 = 0.5;

/// Default minimum routed-tuple sample before any hot-key promotion
/// (see [`SplitJoinConfig::hot_min_sample`]).
pub const DEFAULT_HOT_MIN_SAMPLE: u64 = 1_024;

/// Configuration of a [`SplitJoin`](super::SplitJoin) instance: the shared
/// [`JoinConfig`] plus the SplitJoin-specific extensions. Derefs to
/// [`JoinConfig`], so the shared fields and `&self` helpers
/// (`config.window_size`, `config.sub_window()`) read and write exactly
/// as before the convergence.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitJoinConfig {
    /// The engine-independent configuration fields.
    pub common: JoinConfig,
    /// Hot-key promotion threshold in partitioned mode
    /// ([`Partitioning::Hash`](crate::config::Partitioning::Hash)): a key
    /// is split across all live workers once its sketched frequency
    /// reaches `hot_key_factor` fair shares of the routed traffic
    /// (`estimate ≥ hot_key_factor × total / live_workers`). Default [`DEFAULT_HOT_KEY_FACTOR`]; must be
    /// positive. Set it absurdly high (e.g. `1e9`) to disable splitting.
    pub hot_key_factor: f64,
    /// Minimum routed tuples (prefill included) before any hot-key
    /// promotion — keeps early sketch noise from splitting cold keys.
    /// Default [`DEFAULT_HOT_MIN_SAMPLE`].
    pub hot_min_sample: u64,
}

impl Deref for SplitJoinConfig {
    type Target = JoinConfig;
    fn deref(&self) -> &JoinConfig {
        &self.common
    }
}

impl DerefMut for SplitJoinConfig {
    fn deref_mut(&mut self) -> &mut JoinConfig {
        &mut self.common
    }
}

impl JoinParams for SplitJoinConfig {
    fn common(&self) -> &JoinConfig {
        &self.common
    }
    fn common_mut(&mut self) -> &mut JoinConfig {
        &mut self.common
    }
}

impl SplitJoinConfig {
    /// An equi-join configuration with default channel and batch sizing
    /// (see [`JoinConfig::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` or `window_size` is zero.
    pub fn new(num_cores: usize, window_size: usize) -> Self {
        Self {
            common: JoinConfig::new(num_cores, window_size),
            hot_key_factor: DEFAULT_HOT_KEY_FACTOR,
            hot_min_sample: DEFAULT_HOT_MIN_SAMPLE,
        }
    }

    /// Sets the hot-key promotion factor (see
    /// [`SplitJoinConfig::hot_key_factor`]).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn with_hot_key_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "hot-key factor must be positive");
        self.hot_key_factor = factor;
        self
    }

    /// Sets the minimum sample before hot-key promotion (see
    /// [`SplitJoinConfig::hot_min_sample`]).
    #[must_use]
    pub fn with_hot_sample(mut self, min_sample: u64) -> Self {
        self.hot_min_sample = min_sample;
        self
    }
}
