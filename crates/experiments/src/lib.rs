//! # dms-experiments — Reproduction of the paper's evaluation
//!
//! The paper's evaluation (section 4) contains three figures, all derived
//! from scheduling the same loop suite on machines of 1–10 clusters and on
//! the equivalent unclustered machines:
//!
//! * **Figure 4** — fraction of loops whose II increases due to DMS
//!   partitioning, per cluster count ([`fig4`]);
//! * **Figure 5** — total dynamic cycle count (relative) for Set 1 (all
//!   loops) and Set 2 (loops without recurrences), clustered vs unclustered,
//!   over 3–30 functional units ([`fig5`]);
//! * **Figure 6** — IPC for the same four series ([`fig6`]).
//!
//! [`figt`] adds a beyond-the-paper figure comparing achievable II across
//! interconnect topologies (ring, chordal ring, bus, crossbar) through the
//! `dms_machine::Topology` API, [`figc`] times those schedules' programs
//! under contention-accurate link timing (`dms_sim::contention`) to report
//! the II each fabric actually sustains (both figures share one sweep,
//! [`sweep_topologies`]), and [`figp`] another comparing
//! portfolio scheduler search (`dms_core::SchedulerStrategy`) against the
//! single deterministic heuristic.
//!
//! [`runner`] produces the raw per-loop measurements shared by all figures
//! (fanning the (loop × cluster-count) grid out across worker threads with
//! deterministic, worker-count-independent results — see
//! [`runner::measure_loops_with_stats_on`], the one sweep path every figure
//! command takes). Every scheduler invocation goes through the
//! `dms-service` crate's [`ScheduleService`], whose content-addressed cache
//! makes repeated sweeps against a resident service (the `dms-experiments
//! serve` subcommand) answer from memory, and which publishes its cache
//! counters and request latencies into the registry it is built with.
//! [`ablation`] adds the two ablations motivated by the paper's §5
//! discussion (extra Copy units; chain-direction policy). [`report`]
//! renders everything as aligned text tables and CSV; each figure's table
//! and CSV come from one column list ([`report::Figure`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod figc;
pub mod figp;
pub mod figt;
pub mod report;
pub mod runner;

pub use dms_service::ScheduleService;
pub use fig4::{figure4, Fig4Row};
pub use fig5::{figure5, SeriesRow};
pub use fig6::figure6;
pub use figc::{
    figure_c, sweep_topologies, FigCRow, TopologySweep, FIGC_CLUSTERS, FIGC_TOPOLOGIES,
};
pub use figp::{figure_p, FigPRow};
pub use figt::{figure_t, FigTRow};
pub use runner::{
    measure_loops_with_stats_on, measure_suite_with_stats, ExperimentConfig, LoopMeasurement,
    SweepStats,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::SchedulerStrategy;
    use dms_telemetry::Registry;
    use std::sync::Arc;

    /// Counts a registry must carry after a sweep publishes into it.
    fn assert_published(registry: &Registry, sweep: &str) {
        assert!(registry.counter("dms_cache_misses_total").get() > 0, "{sweep}: cache misses");
        assert!(
            registry.histogram("dms_request_latency_micros").count() > 0,
            "{sweep}: request latencies"
        );
    }

    #[test]
    fn every_figure_sweep_publishes_into_the_registry_it_is_given() {
        let mut cfg = ExperimentConfig::quick(3);
        cfg.cluster_counts = vec![2];

        let registry = Arc::new(Registry::new());
        sweep_topologies(&cfg, &[dms_machine::TopologyKind::Bus], true, &registry);
        assert_published(&registry, "sweep_topologies");

        let registry = Arc::new(Registry::new());
        ablation::sweep_baseline(&cfg, ScheduleService::with_registry(Arc::clone(&registry)));
        assert_published(&registry, "sweep_baseline");

        let registry = Arc::new(Registry::new());
        let service = ScheduleService::with_registry(Arc::clone(&registry));
        cfg.dms.strategy = SchedulerStrategy::Portfolio { n_candidates: 2, exploit_percent: 50 };
        cfg.verify = true;
        let suite = dms_workloads::generate(&cfg.suite);
        let (measurements, _) = measure_loops_with_stats_on(&suite, &cfg, &service);
        assert_eq!(figure_p(&measurements, &cfg).len(), 1);
        assert_published(&registry, "the figure-P sweep");
    }
}
