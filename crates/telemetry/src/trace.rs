//! The scheduler event taxonomy and its per-kind counts.
//!
//! Every decision point the DMS stack exposes records one event of an
//! [`EventKind`]. An event carries no payload: the registry keeps one
//! relaxed atomic count per kind, so recording is a single increment and
//! aggregate questions ("how many pressure retries did this sweep take?")
//! have exact answers however long the run.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The kind of a scheduler event. The taxonomy covers the II search, the
/// pressure-relaxation loop, chain lifecycle, portfolio selection and
/// contention-accurate link timing. Cache hits and misses are counted by
/// the cache's own counters, not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The II search started an attempt at one candidate II.
    IiAttemptStarted,
    /// An II attempt failed (budget exhausted, no schedule found).
    IiAttemptFailed,
    /// A structurally valid schedule was rejected for queue-file capacity
    /// overflow and the search retried one II higher.
    PressureRetry,
    /// A committed move chain was dismantled (its move operations deleted
    /// and the original dependence edge restored).
    ChainDismantled,
    /// A portfolio/beam challenger Pareto-beat the incumbent.
    CandidateWon,
    /// A contention request's program stalled on a link.
    LinkStall,
}

impl EventKind {
    /// Every kind, in declaration order (the fixed order used by renderers).
    pub const ALL: [EventKind; 6] = [
        EventKind::IiAttemptStarted,
        EventKind::IiAttemptFailed,
        EventKind::PressureRetry,
        EventKind::ChainDismantled,
        EventKind::CandidateWon,
        EventKind::LinkStall,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// The snake_case label used in exposition output.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::IiAttemptStarted => "ii_attempt_started",
            EventKind::IiAttemptFailed => "ii_attempt_failed",
            EventKind::PressureRetry => "pressure_retry",
            EventKind::ChainDismantled => "chain_dismantled",
            EventKind::CandidateWon => "candidate_won",
            EventKind::LinkStall => "link_stall",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One relaxed atomic count per [`EventKind`]. Owned by a
/// [`crate::Registry`]; not public API outside the crate.
#[derive(Debug, Default)]
pub(crate) struct EventCounts([AtomicU64; EventKind::ALL.len()]);

impl EventCounts {
    pub(crate) fn record(&self, kind: EventKind) {
        self.0[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self, kind: EventKind) -> u64 {
        self.0[kind.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_kept_per_kind() {
        let counts = EventCounts::default();
        for _ in 0..10 {
            counts.record(EventKind::IiAttemptStarted);
        }
        counts.record(EventKind::CandidateWon);
        assert_eq!(counts.get(EventKind::IiAttemptStarted), 10);
        assert_eq!(counts.get(EventKind::CandidateWon), 1);
        assert_eq!(counts.get(EventKind::LinkStall), 0);
    }

    #[test]
    fn every_event_maps_to_its_kind() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind} counts into its own cell");
            assert!(!kind.name().is_empty());
            assert!(EventKind::ALL[..i].iter().all(|k| k.name() != kind.name()), "{kind} twice");
        }
    }
}
