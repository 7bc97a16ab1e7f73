//! The DMS entry point: the strategy dispatch (plain DMS, beam search,
//! explore/exploit portfolio) over the single-candidate search of
//! `dms-sched`, and the portfolio's seeded jitter.

use dms_ir::{Fnv, Loop};
use dms_machine::MachineConfig;
use dms_sched::schedule::{Schedule, ScheduleError};
use dms_sched::search::{prepare, run_search, DmsConfig, ScheduleOutcome, DMS_BUDGET_RATIO};
use dms_sched::strategy::SchedulerStrategy;
use dms_telemetry::{EventKind, Telemetry};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Schedules a loop with DMS on the given (usually clustered) machine.
///
/// The II search accepts the first structurally-valid schedule whose queue
/// register pressure also fits the machine's LRF/CQRF capacities; a schedule
/// that satisfies every dependence, resource and communication constraint
/// but would fail register allocation is rejected and the search retries at
/// II + 1 (counted in [`ScheduleOutcome::pressure_retries`]).
///
/// Under [`SchedulerStrategy::Beam`] or [`SchedulerStrategy::Portfolio`] the
/// deterministic heuristic runs first as the incumbent; challengers search
/// only up to the incumbent's II and replace it only on a strict Pareto
/// improvement over (II, total queue pressure, code size), so the returned
/// schedule is never worse than the plain heuristic's. If the plain
/// heuristic fails entirely, challengers search the full II range and the
/// first success becomes the incumbent.
///
/// # Examples
///
/// The default configuration runs the paper's deterministic heuristic; a
/// [`SchedulerStrategy`] widens the search without ever losing to it:
///
/// ```
/// use dms_core::{dms_schedule, DmsConfig, SchedulerStrategy};
/// use dms_ir::kernels;
/// use dms_machine::MachineConfig;
///
/// let machine = MachineConfig::paper_clustered(4);
/// let config = DmsConfig {
///     strategy: SchedulerStrategy::Portfolio { n_candidates: 4, exploit_percent: 50 },
///     ..DmsConfig::default()
/// };
/// let out = dms_schedule(&kernels::fir(8, 256), &machine, &config).unwrap();
/// // The portfolio embeds the deterministic heuristic as candidate 0 and
/// // only ever replaces it with a Pareto improvement.
/// assert!(out.ii() <= out.baseline_ii);
/// assert!(out.ii() >= out.stats.mii.unwrap().mii());
/// ```
///
/// # Errors
///
/// Returns the errors of [`prepare`] and [`run_search`]:
/// [`ScheduleError::UnexecutableLoop`] if the machine lacks a required
/// functional-unit class, the recurrence and reservation-table errors, and
/// [`ScheduleError::IiLimitReached`] (or
/// [`ScheduleError::PressureLimitReached`]) if no schedule both fitting the
/// queue files and satisfying the structural constraints is found up to
/// the II limit.
///
/// # Panics
///
/// Panics if [`DmsConfig::strategy`] fails
/// [`SchedulerStrategy::validate`] (a zero beam width or candidate count, or
/// an exploit percentage above 100) — a programming error, since every CLI
/// entry point validates at parse time.
pub fn dms_schedule(
    l: &Loop,
    machine: &MachineConfig,
    config: &DmsConfig,
) -> Result<ScheduleOutcome, ScheduleError> {
    if let Err(msg) = config.strategy.validate() {
        panic!("invalid scheduler strategy: {msg}");
    }
    let prep = prepare(l, machine, config, DMS_BUDGET_RATIO)?;
    let plain = run_search(&prep, None, 1, None, true);
    let baseline_ii = plain.as_ref().ok().map(|o| o.ii());
    let (outcome, candidates_run, winner) = match config.strategy {
        SchedulerStrategy::Dms => (plain, 0, 0),
        SchedulerStrategy::Beam { width } => {
            let (outcome, winner) =
                run_challengers(plain, 1, |_, cap| run_search(&prep, cap, width, None, true));
            (outcome, 1, winner)
        }
        SchedulerStrategy::Portfolio { n_candidates, exploit_percent } => {
            let challengers = n_candidates.saturating_sub(1);
            let (outcome, winner) = run_challengers(plain, challengers, |i, cap| {
                // The RNG persists across the candidate's II attempts, so
                // each draws a fresh perturbation.
                let mut rng = StdRng::seed_from_u64(candidate_seed(&l.name, i));
                let explore = !rng.gen_bool(f64::from(exploit_percent) / 100.0);
                let mut jitter = |heights: &[i64]| draw_jitter(&mut rng, heights, explore);
                run_search(&prep, cap, 1, Some(&mut jitter), true)
            });
            (outcome, challengers, winner)
        }
    };
    let mut outcome = outcome?;
    outcome.baseline_ii = baseline_ii.unwrap_or_else(|| outcome.ii());
    outcome.candidates_run = candidates_run;
    outcome.winner_candidate = winner;
    Ok(outcome)
}

/// Runs `challengers` searches against an incumbent, keeping a challenger
/// only when it strictly Pareto-dominates the incumbent on
/// (II, pressure, code size) — or when there is no incumbent to beat.
/// Returns the final outcome and the index of the winning candidate
/// (0 = the deterministic baseline).
fn run_challengers(
    mut incumbent: Result<ScheduleOutcome, ScheduleError>,
    challengers: u32,
    mut run: impl FnMut(u32, Option<u32>) -> Result<ScheduleOutcome, ScheduleError>,
) -> (Result<ScheduleOutcome, ScheduleError>, u32) {
    let telemetry = Telemetry::current();
    let mut winner = 0u32;
    for i in 1..=challengers {
        let cap = incumbent.as_ref().ok().map(|o| o.ii());
        let Ok(challenger) = run(i, cap) else {
            continue;
        };
        let replaces = match &incumbent {
            Ok(best) => pareto_beats(&challenger, best),
            Err(_) => true,
        };
        if replaces {
            incumbent = Ok(challenger);
            winner = i;
            telemetry.event(EventKind::CandidateWon);
        }
    }
    (incumbent, winner)
}

/// The minimization objectives of the portfolio/beam selection: II first in
/// spirit, but compared as a Pareto triple, never lexicographically.
fn score(o: &ScheduleOutcome) -> (u32, u32, u64) {
    (o.ii(), o.pressure.total(), code_size_words(&o.schedule))
}

/// Emitted VLIW words of the schedule, independent of the trip count:
/// prologue and epilogue of `stage_count - 1` stages each, plus the kernel,
/// each `ii` words long.
fn code_size_words(s: &Schedule) -> u64 {
    (2 * (u64::from(s.stage_count()) - 1) + 1) * u64::from(s.ii())
}

/// Strict Pareto dominance: no objective worse, at least one strictly
/// better. Ties keep the incumbent, so equal-quality challengers never
/// displace the deterministic baseline.
fn pareto_beats(challenger: &ScheduleOutcome, incumbent: &ScheduleOutcome) -> bool {
    let (a, b) = (score(challenger), score(incumbent));
    a != b && a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2
}

/// The jitter seed of portfolio candidate `candidate` on the named loop:
/// FNV-1a over the loop name, mixed with the candidate index. A pure
/// function of (loop, candidate), so sweeps are byte-reproducible for any
/// worker count and work-stealing order.
fn candidate_seed(loop_name: &str, candidate: u32) -> u64 {
    let mut h = Fnv::new();
    h.bytes(loop_name.as_bytes());
    h.finish() ^ u64::from(candidate).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Draws one priority perturbation per DDG slot. Exploit candidates only
/// break near-ties (jitter in {0, 1}); explore candidates may reorder whole
/// height bands (jitter up to a quarter of the height span).
fn draw_jitter(rng: &mut StdRng, heights: &[i64], explore: bool) -> Vec<i64> {
    let span = heights.iter().copied().max().unwrap_or(0).max(0);
    let bound = if explore { (span / 4).max(2) } else { 1 };
    heights.iter().map(|_| rng.gen_range(0..=bound)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{kernels, transform};
    use dms_machine::FuKind;
    use dms_sched::ims::{default_max_ii, ims_schedule, ImsConfig};
    use dms_sched::mii::mii;
    use dms_sched::validate::validate_schedule;
    use dms_sched::ChainPolicy;

    fn check(l: &dms_ir::Loop, machine: &MachineConfig, config: &DmsConfig) -> ScheduleOutcome {
        let r = dms_schedule(l, machine, config)
            .unwrap_or_else(|e| panic!("{} failed to schedule: {e}", l.name));
        let violations = validate_schedule(&r.ddg, machine, &r.schedule);
        assert!(violations.is_empty(), "{}: schedule has violations: {:?}", l.name, violations);
        assert!(r.ddg.validate().is_ok(), "{}: DDG corrupted by scheduling", l.name);
        r
    }

    #[test]
    fn candidate_seeds_are_pinned() {
        // Every portfolio candidate's jitter stream starts here, so a changed
        // seed would silently reorder every portfolio schedule.
        assert_eq!(candidate_seed("fir8", 0), 0xaa77_d078_efdf_85da);
        assert_eq!(candidate_seed("fir8", 1), 0x3440_a9c1_9095_f9cf);
        assert_eq!(candidate_seed("fir8", 7), 0xf9f3_846a_94d6_e149);
        assert_eq!(candidate_seed("suite-0017", 3), 0x554c_adda_844d_1a79);
        assert_eq!(candidate_seed("", 0), 0xcbf2_9ce4_8422_2325);
        assert_eq!(candidate_seed("dot", 5), 0xddba_4887_8800_34c9);
    }

    #[test]
    fn schedules_every_kernel_on_every_cluster_count() {
        for l in kernels::all(64) {
            for clusters in [1, 2, 3, 4, 6, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = check(&l, &m, &DmsConfig::default());
                let mii = r.stats.mii.unwrap().mii();
                assert!(r.ii() >= mii, "{}: II {} below MII {}", l.name, r.ii(), mii);
            }
        }
    }

    #[test]
    fn single_cluster_dms_matches_ims() {
        // On one cluster DMS degenerates to IMS (no copies, no chains).
        for l in kernels::all(64) {
            let m = MachineConfig::paper_clustered(1);
            let d = check(&l, &m, &DmsConfig::default());
            let i = ims_schedule(&l, &m, &ImsConfig::default()).unwrap();
            assert_eq!(d.ii(), i.ii(), "{}: DMS and IMS must agree on 1 cluster", l.name);
            assert_eq!(d.stats.copies_inserted, 0);
            assert_eq!(d.stats.moves_inserted, 0);
        }
    }

    #[test]
    fn two_and_three_cluster_machines_never_need_moves() {
        // Every pair of clusters is directly connected, so no communication
        // conflict can arise and strategy 2/3 should never fire.
        for l in kernels::all(64) {
            for clusters in [2, 3] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = check(&l, &m, &DmsConfig::default());
                assert_eq!(r.stats.moves_inserted, 0, "{}: unexpected moves", l.name);
                assert_eq!(r.stats.strategy2_placements, 0);
            }
        }
    }

    #[test]
    fn useful_ops_preserved_by_scheduling() {
        let l = kernels::fir(8, 256);
        let m = MachineConfig::paper_clustered(4);
        let r = check(&l, &m, &DmsConfig::default());
        assert_eq!(r.useful_ops(), l.useful_ops());
    }

    #[test]
    fn wide_unrolled_loop_spreads_across_clusters() {
        let l = transform::unroll(&kernels::daxpy(1024), 8);
        let m = MachineConfig::paper_clustered(8);
        let r = check(&l, &m, &DmsConfig::default());
        let used: std::collections::HashSet<_> =
            r.schedule.iter().map(|(_, s)| s.cluster).collect();
        assert!(
            used.len() >= 4,
            "a 40-op loop should use several of the 8 clusters, used {}",
            used.len()
        );
    }

    #[test]
    fn chains_appear_on_wide_machines_with_spread_producers() {
        // A reduction over many loads forces values to cross the ring: on an
        // 8-cluster machine at least one of these loops needs moves or the
        // strategy-3 fallback.
        let mut any_conflict_resolution = false;
        for l in [kernels::fir(16, 256), transform::unroll(&kernels::dot_product(1024), 8)] {
            let m = MachineConfig::paper_clustered(8);
            let r = check(&l, &m, &DmsConfig::default());
            if r.stats.moves_inserted > 0 || r.stats.strategy3_placements > 0 {
                any_conflict_resolution = true;
            }
        }
        assert!(
            any_conflict_resolution,
            "expected at least one loop to exercise strategy 2 or 3 on 8 clusters"
        );
    }

    #[test]
    fn clustered_ii_never_beats_the_unclustered_ideal() {
        for l in kernels::all(64) {
            for clusters in [2, 4, 8] {
                let clustered = MachineConfig::paper_clustered(clusters);
                let unclustered = MachineConfig::unclustered(clusters);
                let d = check(&l, &clustered, &DmsConfig::default());
                let i = ims_schedule(&l, &unclustered, &ImsConfig::default()).unwrap();
                assert!(
                    d.ii() >= i.ii(),
                    "{} on {} clusters: DMS II {} < IMS II {}",
                    l.name,
                    clusters,
                    d.ii(),
                    i.ii()
                );
            }
        }
    }

    #[test]
    fn overhead_on_few_clusters_comes_only_from_copies() {
        // For 2-3 clusters any II increase over the unclustered machine must
        // be attributable to copy pressure, not to moves.
        for l in kernels::all(64) {
            for clusters in [2, 3] {
                let d = check(&l, &MachineConfig::paper_clustered(clusters), &DmsConfig::default());
                let i =
                    ims_schedule(&l, &MachineConfig::unclustered(clusters), &ImsConfig::default())
                        .unwrap();
                if d.ii() > i.ii() {
                    assert!(d.stats.copies_inserted > 0, "{}: overhead without copies", l.name);
                }
                assert_eq!(d.stats.moves_inserted, 0);
            }
        }
    }

    #[test]
    fn shortest_path_policy_also_produces_valid_schedules() {
        let cfg = DmsConfig { chain_policy: ChainPolicy::ShortestPath, ..DmsConfig::default() };
        for l in [kernels::fir(16, 256), kernels::complex_multiply(256)] {
            let m = MachineConfig::paper_clustered(8);
            check(&l, &m, &cfg);
        }
    }

    #[test]
    fn extra_copy_units_never_hurt() {
        let l = kernels::fir(12, 256);
        let one = check(&l, &MachineConfig::paper_clustered(6), &DmsConfig::default());
        let two = check(
            &l,
            &MachineConfig::paper_clustered_with(6, 2, None, dms_machine::TopologyKind::Ring),
            &DmsConfig::default(),
        );
        assert!(two.ii() <= one.ii());
    }

    #[test]
    fn unschedulable_machine_is_reported() {
        let l = kernels::daxpy(8);
        let m = MachineConfig::homogeneous(
            2,
            dms_machine::ClusterFus { load_store: 0, add: 1, mul: 1, copy: 1 },
            dms_ir::LatencySpec::default(),
        );
        assert!(matches!(
            dms_schedule(&l, &m, &DmsConfig::default()),
            Err(ScheduleError::UnexecutableLoop { fu: FuKind::LoadStore, .. })
        ));
    }

    #[test]
    fn exhausting_the_search_on_capacity_rejections_is_reported_distinctly() {
        // Zero-capacity queue files: every structurally-valid schedule is
        // rejected by the pressure check, so the search must exhaust the II
        // range with a PressureLimitReached (carrying the rejection count),
        // not a bare IiLimitReached.
        let l = kernels::daxpy(16);
        let mut m = MachineConfig::paper_clustered(2);
        m.lrf_capacity = 0;
        m.cqrf_capacity = 0;
        let mut ddg = l.ddg.clone();
        transform::convert_to_single_use(&mut ddg, m.latency());
        let ceiling = default_max_ii(&ddg, &m, mii(&ddg, &m).unwrap().mii());
        match dms_schedule(&l, &m, &DmsConfig::default()) {
            Err(ScheduleError::PressureLimitReached { limit, retries }) => {
                assert_eq!(limit, ceiling, "the search runs up to the derived ceiling");
                assert!(retries >= 1, "at least one schedule must have been rejected")
            }
            other => panic!("expected PressureLimitReached, got {other:?}"),
        }
    }

    #[test]
    fn plain_strategy_reports_itself_as_its_own_baseline() {
        let l = kernels::fir(8, 256);
        let r = check(&l, &MachineConfig::paper_clustered(4), &DmsConfig::default());
        assert_eq!(r.baseline_ii, r.ii());
        assert_eq!(r.candidates_run, 0);
        assert_eq!(r.winner_candidate, 0);
    }

    #[test]
    fn beam_and_portfolio_never_lose_to_the_plain_heuristic() {
        for l in kernels::all(64) {
            for clusters in [2, 4, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let plain = check(&l, &m, &DmsConfig::default());
                for strategy in [
                    SchedulerStrategy::Beam { width: 4 },
                    SchedulerStrategy::Portfolio { n_candidates: 4, exploit_percent: 50 },
                ] {
                    let cfg = DmsConfig { strategy, ..DmsConfig::default() };
                    let r = check(&l, &m, &cfg);
                    let tag = format!("{} on {clusters} clusters with {strategy}", l.name);
                    assert_eq!(r.baseline_ii, plain.ii(), "{tag}: wrong baseline");
                    // Pareto-dominates-or-equals the plain point on every
                    // objective — the winner is either candidate 0 itself or
                    // a strict improvement.
                    assert!(r.ii() <= plain.ii(), "{tag}: II regressed");
                    assert!(
                        r.pressure.total() <= plain.pressure.total(),
                        "{tag}: pressure regressed"
                    );
                    assert!(
                        code_size_words(&r.schedule) <= code_size_words(&plain.schedule),
                        "{tag}: code size regressed"
                    );
                    if r.winner_candidate == 0 {
                        assert_eq!(r.ii(), plain.ii(), "{tag}: candidate 0 must be the plain run");
                    }
                }
            }
        }
    }

    #[test]
    fn portfolio_is_deterministic_across_runs() {
        let l = transform::unroll(&kernels::dot_product(1024), 4);
        let m = MachineConfig::paper_clustered(8);
        let cfg = DmsConfig {
            strategy: SchedulerStrategy::Portfolio { n_candidates: 8, exploit_percent: 50 },
            ..DmsConfig::default()
        };
        let a = check(&l, &m, &cfg);
        let b = check(&l, &m, &cfg);
        assert_eq!(a.ii(), b.ii());
        assert_eq!(a.winner_candidate, b.winner_candidate);
        assert_eq!(a.pressure.total(), b.pressure.total());
        assert_eq!(a.candidates_run, 7);
    }

    #[test]
    fn beam_width_one_still_schedules_every_kernel() {
        // The plain heuristic is the width-1 beam, so its challenger
        // repeats the baseline and never replaces it.
        let cfg =
            DmsConfig { strategy: SchedulerStrategy::Beam { width: 1 }, ..DmsConfig::default() };
        for l in kernels::all(64) {
            let m = MachineConfig::paper_clustered(4);
            let r = check(&l, &m, &cfg);
            let plain = check(&l, &m, &DmsConfig::default());
            assert_eq!(r.schedule, plain.schedule, "{}", l.name);
            assert_eq!(r.winner_candidate, 0, "{}", l.name);
        }
    }
}
