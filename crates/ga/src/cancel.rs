//! The caller's stop switch for a portfolio race.
//!
//! A [`CancelToken`] is a cloneable flag. The portfolio orchestrator (in
//! `netsyn-core`) checks it between lockstep rounds, never inside a
//! strategy's step, so a fired token stops the race after the round in
//! flight has been merged and charged. The race also fires the token itself
//! when a strategy solves the problem or panics, so every holder of a clone
//! sees that the race is over.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable, thread-safe cancellation flag.
///
/// Clones share one flag; once fired it stays fired.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates an un-fired token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been fired.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_observe_the_same_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        // Idempotent.
        clone.cancel();
        assert!(token.is_cancelled());
    }
}
