//! Heap allocations of the DDG, of the schedule cache and of the sweep's
//! rows, counted by a global allocator.
//!
//! Every request decode builds a DDG, so the number of blocks a `Ddg` takes
//! is part of the service's cost. The graph keeps its adjacency as links in
//! flat vectors, so a clone allocates its four tables plus one operand list
//! per op that reads anything. A cache entry, by contrast, is a fixed-size
//! record that owns no heap block, and so are a sweep row and a machine.
//! Run with `-- --nocapture` to see the per-decode count of a benchmark
//! request line.

use dms_experiments::{measure_loops_with_stats_on, ExperimentConfig, LoopMeasurement};
use dms_ir::transform::convert_to_single_use;
use dms_ir::{Ddg, LatencySpec};
use dms_machine::{MachineConfig, TopologyKind};
use dms_service::service::DEFAULT_SHARDS;
use dms_service::wire::{decode_request, encode_schedule_request, WireMachine, WireSchedule};
use dms_service::{ScheduleRecord, ScheduleRequest, ScheduleService, SchedulerKind};
use dms_workloads::{generate, unroll_for_machine, SuiteConfig, UnrollPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting on each thread the blocks it hands out
/// (`alloc`, `alloc_zeroed` and `realloc`) and the blocks live (handed out
/// by `alloc` or `alloc_zeroed` less those freed), so tests running on
/// other threads do not disturb a count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(allocations: usize, live: isize) {
    // During thread teardown the counters may be gone; that block is not
    // one a test measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE.try_with(|n| n.set(n.get() + live));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 0);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the blocks it allocated on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns how many more blocks are live on this thread
/// afterwards.
fn live_blocks_after(f: impl FnOnce()) -> isize {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
}

/// Ops whose operand list is non-empty: the blocks a clone allocates on
/// top of the graph's own tables.
fn ops_with_reads(ddg: &Ddg) -> usize {
    ddg.live_ops().filter(|(_, op)| !op.reads.is_empty()).count()
}

/// Every paper-suite body, as generated, unrolled for the 1–10-cluster
/// paper machines and after the single-use conversion (which leaves
/// tombstones), clones into at most four blocks plus its operand lists.
#[test]
fn a_ddg_clone_allocates_four_tables_plus_its_operand_lists() {
    let policy = UnrollPolicy::default();
    let mut checked = 0;
    for l in generate(&SuiteConfig::paper()) {
        let mut ddgs = vec![l.body.ddg.clone()];
        for clusters in [1, 4, 10] {
            let fus = MachineConfig::paper_clustered(clusters).total_useful_fus();
            let mut ddg = unroll_for_machine(&l.body, fus, &policy).ddg;
            ddgs.push(ddg.clone());
            convert_to_single_use(&mut ddg, &LatencySpec::default());
            ddgs.push(ddg);
        }
        for ddg in &ddgs {
            let (clone, n) = allocations(|| ddg.clone());
            assert!(n <= 4 + ops_with_reads(ddg), "{}: {n} blocks for {ddg:?}", l.body.name);
            assert_eq!(format!("{clone:?}"), format!("{ddg:?}"));
            checked += 1;
        }
    }
    assert_eq!(checked, 1258 * 7);
}

/// Decoding a request line builds its DDG in one pass: a fixed number of
/// blocks for the request and the graph's tables, plus one per operand
/// list. Checked on the benchmark's request mix of plain DMS requests over
/// the paper suite (400 cells, cluster counts cycling through 1–10).
#[test]
fn a_request_decode_allocates_a_bounded_count_beyond_its_operand_lists() {
    let loops = 1_258;
    let suite = generate(&SuiteConfig::small(loops));
    let (mut total, mut ops, mut worst_extra) = (0, 0, 0);
    for i in 0..400 {
        let clusters = 1 + (i * 3 % 10) as u32;
        let fus = MachineConfig::paper_clustered(clusters).total_useful_fus();
        let line = encode_schedule_request(&WireSchedule {
            body: unroll_for_machine(&suite[i * loops / 400].body, fus, &UnrollPolicy::default()),
            machine: WireMachine {
                unclustered: false,
                clusters,
                copy_units: 1,
                cqrf_capacity: None,
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: dms_core::DmsConfig::default(),
            verify_trips: None,
            contention: false,
        });
        let (request, n) = allocations(|| decode_request(&line));
        let request = request.unwrap();
        let dms_service::wire::WireRequest::Schedule(schedule) = request else {
            panic!("line {i} decodes to {request:?}");
        };
        let ddg = &schedule.body.ddg;
        total += n;
        ops += ddg.num_slots();
        worst_extra = worst_extra.max(n - ops_with_reads(ddg));
    }
    println!(
        "{:.1} blocks per decode of a {:.1}-op request line; at most {worst_extra} beyond its operand lists",
        total as f64 / 400.0,
        ops as f64 / 400.0
    );
    assert!(worst_extra <= 16, "{worst_extra} blocks beyond the operand lists");
}

/// A cache entry is a fixed-size record that owns no heap block, so cold
/// answers of paper-suite loops leave nothing live but the cache's own
/// tables: each of the 16 shards allocates one table, and the map's growth
/// swaps it for a larger one, however many entries the answers add.
#[test]
fn cached_answers_own_no_heap_block() {
    assert!(std::mem::size_of::<ScheduleRecord>() <= 128);
    let suite = generate(&SuiteConfig::small(200));
    let service = ScheduleService::default();
    let clustered = MachineConfig::paper_clustered(4);
    let unclustered = MachineConfig::unclustered(4);
    let answer_all = |loops: &[dms_workloads::SuiteLoop]| {
        for l in loops {
            let dms = ScheduleRequest {
                body: &l.body,
                machine: &clustered,
                dms: dms_core::DmsConfig::default(),
                scheduler: SchedulerKind::Dms,
                verify_trips: None,
                contention: false,
            };
            let ims =
                ScheduleRequest { machine: &unclustered, scheduler: SchedulerKind::Ims, ..dms };
            for req in [dms, ims] {
                assert!(!service.answer(&req).unwrap().cache_hit, "{}", l.body.name);
            }
        }
    };
    // The first answers set up what lives as long as the thread: the
    // registry's handles and the telemetry thread-locals.
    answer_all(&suite[..8]);
    let live = live_blocks_after(|| answer_all(&suite[8..]));
    let entries = service.cache_len();
    assert_eq!(entries, 400);
    assert!(
        live <= DEFAULT_SHARDS as isize,
        "{live} blocks stay live after {entries} cold answers"
    );
}

/// A sweep row and a machine are plain `Copy` values: a row holds the
/// topology and strategy kinds, not their labels, and a machine is a count
/// of identical clusters. So a warm re-sweep, every request a cache hit,
/// leaves one block live while its rows are held: the rows' `Vec`.
#[test]
fn sweep_rows_own_no_heap_block() {
    fn copy<T: Copy>() {}
    copy::<LoopMeasurement>();
    copy::<MachineConfig>();
    assert!(std::mem::size_of::<LoopMeasurement>() <= 160);
    let mut config = ExperimentConfig::quick(24);
    config.cluster_counts = vec![2, 4];
    config.threads = 1;
    let suite = generate(&config.suite);
    let service = ScheduleService::default();
    let (cold, _) = measure_loops_with_stats_on(&suite, &config, &service);
    let mut warm = Vec::new();
    let live = live_blocks_after(|| {
        let (rows, stats) = measure_loops_with_stats_on(&suite, &config, &service);
        assert_eq!((stats.failed, stats.cache_misses), (0, 0));
        warm = rows;
    });
    assert_eq!(warm.len(), 48);
    assert!(warm.iter().all(|m| m.cache_hit));
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(LoopMeasurement { cache_hit: c.cache_hit, ..*w }, *c);
    }
    assert!(live <= 1, "{live} blocks stay live while {} warm rows are held", warm.len());
}
