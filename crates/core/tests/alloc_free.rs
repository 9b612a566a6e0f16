//! Counting-allocator proof that the engine's slot path performs zero
//! heap allocations after warm-up.
//!
//! Black-box formulation: every `Engine::run` pays a fixed setup cost
//! (bank, schedulers, exec scratch, the pre-sized period vector) and
//! warms up its scratch buffers during the first day. If the slot loop
//! and the per-period path are allocation-free from then on, the total
//! allocation count of a run must not depend on how many days it
//! simulates — extra days are free. The test pins exactly that, for all
//! three fixed schedulers.
//!
//! Report encoding gets the same pin: a warm `SimReport` serialised
//! into a `String` that already has room writes every float and
//! integer in place, with no allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::benchmarks;
use heliosched::{Engine, FixedPlanner, NodeConfig, Pattern};
use serde::Serialize;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter is process-global; each test holds this lock for its
/// whole body so sibling tests don't count into a measured region.
static MEASURE: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(|e| e.into_inner())
}

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// `days` repeats of the same two-day weather sequence.
fn setup(days: usize) -> (NodeConfig, SolarTrace) {
    let grid = TimeGrid::new(days, 24, 10, Seconds::new(60.0)).unwrap();
    let archetypes: Vec<DayArchetype> = [DayArchetype::Clear, DayArchetype::BrokenClouds]
        .into_iter()
        .cycle()
        .take(days)
        .collect();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(10.0)])
        .build()
        .unwrap();
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(7)
        .days(&archetypes)
        .build();
    (node, trace)
}

#[test]
fn slot_path_allocates_nothing_after_warm_up() {
    let _serial = serial();
    let graph = benchmarks::ecg();
    let (node_short, trace_short) = setup(2);
    let (node_long, trace_long) = setup(6);
    let engine_short = Engine::new(&node_short, &graph, &trace_short).unwrap();
    let engine_long = Engine::new(&node_long, &graph, &trace_long).unwrap();

    for pattern in [Pattern::Asap, Pattern::Inter, Pattern::Intra] {
        let short = allocations_during(|| {
            engine_short
                .run(&mut FixedPlanner::new(pattern, 0))
                .unwrap();
        });
        let long = allocations_during(|| {
            engine_long.run(&mut FixedPlanner::new(pattern, 0)).unwrap();
        });
        // Setup and warm-up allocate identically; the four extra days
        // of the long run must add nothing.
        assert_eq!(
            long, short,
            "{pattern:?}: {long} allocations over 6 days vs {short} over 2 — \
             the slot path allocates per slot or per period"
        );
    }
}

#[test]
fn encoding_a_report_into_a_sized_string_allocates_nothing() {
    let _serial = serial();
    let graph = benchmarks::ecg();
    let (node, trace) = setup(2);
    let engine = Engine::new(&node, &graph, &trace).unwrap();
    for pattern in [Pattern::Asap, Pattern::Inter, Pattern::Intra] {
        let report = engine.run(&mut FixedPlanner::new(pattern, 0)).unwrap();
        let reference = serde_json::to_string(&report).unwrap();
        let mut out = String::with_capacity(reference.len());
        let count = allocations_during(|| report.serialize_json(&mut out));
        assert_eq!(
            out, reference,
            "{pattern:?}: in-place encoding changed the bytes"
        );
        assert_eq!(
            count,
            0,
            "{pattern:?}: {count} allocations encoding a {}-byte report into a \
             sized buffer — some field is formatted through a temporary `String`",
            reference.len()
        );
    }
}
