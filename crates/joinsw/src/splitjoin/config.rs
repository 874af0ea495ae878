//! [`SplitJoinConfig`]: the shared [`JoinConfig`] under SplitJoin's own
//! type.

use std::ops::{Deref, DerefMut};

use crate::config::{JoinConfig, JoinParams};

/// Configuration of a [`SplitJoin`](super::SplitJoin) instance: the shared
/// [`JoinConfig`], which it derefs to, so the shared fields and `&self`
/// helpers (`config.window_size`, `config.sub_window()`) read and write
/// as on [`JoinConfig`] itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitJoinConfig {
    /// The engine-independent configuration fields.
    pub common: JoinConfig,
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
        }
    }
}
