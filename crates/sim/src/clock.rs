//! A shared virtual clock for multi-platform runs.
//!
//! The execution engine (`crowdjoin-engine`) runs one [`crate::Platform`]
//! per shard as a poll-based state machine in the event loop (which
//! schedules shards by their [`crate::Platform::next_event_time`]). Each
//! platform advances its
//! own virtual time independently (shards are disjoint workloads, so their
//! event streams never interact). The *job's* completion time is the
//! critical path — the maximum virtual completion time over shards — and
//! [`SharedClock`] is a lock-free accumulator concurrent drivers can
//! publish into as shards finish.

use crate::time::VirtualTime;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic max-accumulator of virtual time, shareable across threads.
#[derive(Debug, Default)]
pub struct SharedClock {
    max_ms: AtomicU64,
}

impl SharedClock {
    /// A clock at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a shard-local time; the clock keeps the maximum seen.
    pub fn advance_to(&self, t: VirtualTime) {
        self.max_ms.fetch_max(t.0, Ordering::AcqRel);
    }

    /// The latest virtual time any participant has published — the critical
    /// path so far.
    #[must_use]
    pub fn now(&self) -> VirtualTime {
        VirtualTime(self.max_ms.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_maximum() {
        let c = SharedClock::new();
        assert_eq!(c.now(), VirtualTime::ZERO);
        c.advance_to(VirtualTime(50));
        c.advance_to(VirtualTime(20));
        assert_eq!(c.now(), VirtualTime(50));
        c.advance_to(VirtualTime(70));
        assert_eq!(c.now(), VirtualTime(70));
    }

    #[test]
    fn concurrent_publishes_converge() {
        let c = std::sync::Arc::new(SharedClock::new());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for t in 0..1000 {
                        c.advance_to(VirtualTime(i * 1000 + t));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), VirtualTime(7999));
    }
}
