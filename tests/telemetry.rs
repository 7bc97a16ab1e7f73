//! Non-perturbation regression tests for the `dms-telemetry` subsystem.
//!
//! The subsystem's hard contract is that *observing* a run never changes
//! it: a sweep with the telemetry registry installed process-wide (the
//! `--metrics-json` configuration) must produce measurement CSV
//! byte-identical to a sweep with no telemetry at all, for every worker
//! count. These tests pin that contract.
//!
//! Everything that touches the process-wide telemetry sink
//! ([`dms_telemetry::install`] / [`dms_telemetry::uninstall`]) lives in
//! ONE `#[test]` function: the sink is global, and the test harness runs
//! sibling tests in this binary on parallel threads.

use dms::experiments::report;
use dms::experiments::{
    measure_loops_with_stats_on, measure_suite_with_stats, ExperimentConfig, ScheduleService,
};
use dms::telemetry::{EventKind, Registry, Telemetry};
use std::sync::Arc;

/// A verified sweep, wide enough to exercise chain dismantling, the II
/// search and the cache, small enough to run in a debug-profile test.
fn sweep_config(threads: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(12);
    cfg.cluster_counts = vec![2, 4];
    cfg.verify = true;
    cfg.threads = threads;
    cfg
}

#[test]
fn measurement_csv_is_byte_identical_with_telemetry_on_and_off() {
    // Phase 1 — telemetry fully off: nothing installed, private service
    // registries. This is the baseline the seed repo produced.
    assert!(!Telemetry::current().is_enabled(), "test must start with no global sink");
    let mut baseline = Vec::new();
    for threads in [1usize, 4] {
        let (measurements, stats) = measure_suite_with_stats(&sweep_config(threads));
        assert_eq!(stats.failed, 0, "threads={threads}: every schedule must verify");
        baseline.push(report::measurements_csv(&measurements));
    }
    assert_eq!(baseline[0], baseline[1], "baseline itself must be thread-count independent");

    // Phase 2 — telemetry fully on: the registry is installed as the
    // process-wide sink (so the scheduler core counts its events)
    // AND shared with the sweep's service (so cache counters and request
    // latencies land in it). Byte-for-byte, nothing may change.
    let registry = Arc::new(Registry::new());
    dms::telemetry::install(Arc::clone(&registry));
    for (baseline_csv, threads) in baseline.iter().zip([1usize, 4]) {
        let service = ScheduleService::with_registry(Arc::clone(&registry));
        let cfg = sweep_config(threads);
        let suite = dms::workloads::generate(&cfg.suite);
        let (measurements, stats) = measure_loops_with_stats_on(&suite, &cfg, &service);
        assert_eq!(stats.failed, 0, "threads={threads}: every schedule must verify");
        assert_eq!(
            &report::measurements_csv(&measurements),
            baseline_csv,
            "threads={threads}: telemetry collection must not perturb the measurement CSV"
        );
    }

    // The equality above must not be vacuous: the registry really was
    // collecting while those sweeps ran.
    assert!(registry.counter("dms_cache_misses_total").get() > 0, "cache counters collected");
    assert!(
        registry.event_count(EventKind::IiAttemptStarted) > 0,
        "scheduler core traced II attempts through the global sink"
    );
    assert!(
        registry.histogram("dms_request_latency_micros").count() > 0,
        "request latencies observed"
    );

    // Uninstall and confirm later captures see a disabled handle again.
    dms::telemetry::uninstall();
    assert!(!Telemetry::current().is_enabled(), "uninstall must restore the no-op handle");
}
