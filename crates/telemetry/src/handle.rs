//! The zero-cost disabled handle and the process-global dispatch point.
//!
//! The scheduler core (`dms-core`/`dms-sched`/`dms-sim`) predates
//! telemetry and hashes its configs into cache keys, so a handle cannot
//! ride in `DmsConfig` (its `Debug` output feeds the content address —
//! a telemetry field would fragment the cache) and signature changes
//! would ripple through every driver and test. Instead, instrumented code
//! captures [`Telemetry::current`] once per coarse unit of work (one
//! II search, one scheduler state) — a single `RwLock` read — and records
//! through the captured handle. With nothing [`install`]ed the handle is
//! a `None` and every recording call is a no-op.

use crate::registry::Registry;
use crate::trace::EventKind;
use std::sync::{Arc, PoisonError, RwLock};

static GLOBAL: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// Publishes `registry` as the process-global telemetry sink. Replaces any
/// previous installation; handles captured earlier keep recording into the
/// registry they captured.
pub fn install(registry: Arc<Registry>) {
    *GLOBAL.write().unwrap_or_else(PoisonError::into_inner) = Some(registry);
}

/// Removes the global sink: subsequent [`Telemetry::current`] calls return
/// the disabled handle.
pub fn uninstall() {
    *GLOBAL.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// A cheap, cloneable recording handle: either enabled (backed by a
/// registry) or a no-op.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
}

impl Telemetry {
    /// The no-op handle.
    pub const fn disabled() -> Telemetry {
        Telemetry { registry: None }
    }

    /// Captures the currently installed global sink (disabled if none).
    pub fn current() -> Telemetry {
        Telemetry { registry: GLOBAL.read().unwrap_or_else(PoisonError::into_inner).clone() }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, if enabled.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Counts one scheduler event of `kind` (no-op when disabled).
    #[inline]
    pub fn event(&self, kind: EventKind) {
        if let Some(r) = &self.registry {
            r.record_event(kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_disabled_handle_swallows_events() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.event(EventKind::CandidateWon); // must not panic or record anywhere
        assert!(t.registry().is_none());
    }

    #[test]
    fn an_enabled_handle_records_into_its_registry() {
        let registry = Arc::new(Registry::new());
        let t = Telemetry { registry: Some(Arc::clone(&registry)) };
        assert!(t.is_enabled());
        t.event(EventKind::CandidateWon);
        assert_eq!(registry.event_count(EventKind::CandidateWon), 1);
    }

    // The install/current/uninstall cycle is exercised by the workspace
    // integration test (tests/telemetry.rs), which serialises all users of
    // the process-global sink; unit tests here stay global-free so they
    // can run concurrently with anything.
}
