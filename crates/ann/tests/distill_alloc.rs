//! Counting-allocator proof that the distilled decision path is
//! allocation-free in steady state: distillation pays the whole setup
//! cost, the per-period prewalk/fold reuses its buffer, and every
//! `predict_folded` call after the first — the per-decision hot path —
//! touches no allocator at all, and neither does a shared
//! [`FoldTable`] lookup that hits a built fold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use helio_ann::{Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable};

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

/// A scheduler-shaped teacher: 13 inputs, the golden hidden stack,
/// 10 outputs.
fn trained_dbn() -> Dbn {
    let inputs: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..13)
                .map(|j| ((i * 13 + j) as f64 * 0.37).sin().abs() * 40.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..10)
                .map(|j| ((i + j) as f64 * 0.21).cos().abs())
                .collect()
        })
        .collect();
    let mut cfg = DbnConfig::small(42);
    cfg.bp_epochs = 20;
    Dbn::train(&inputs, &targets, &cfg).expect("trains")
}

fn distilled_policy() -> DistilledPolicy {
    let dbn = trained_dbn();
    let cfg = DistillConfig {
        depth_const: 4,
        depth_vary: 4,
        samples: 2048,
        candidates: 16,
        holdout: 256,
        ..DistillConfig::small(7)
    };
    DistilledPolicy::distill(&dbn, 10, &[], &cfg).expect("distils")
}

/// Ten "periods" of five decisions each: the constant prefix is fixed
/// within a period, the varying tail changes per decision.
fn periods() -> Vec<Vec<Vec<f64>>> {
    (0..10)
        .map(|p| {
            (0..5)
                .map(|d| {
                    (0..13)
                        .map(|t| {
                            if t < 10 {
                                ((p * 13 + t) as f64 * 0.61).sin().abs() * 40.0
                            } else {
                                ((p * 5 + d + t) as f64 * 0.29).cos().abs() * 3.0
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
#[allow(clippy::disallowed_methods)] // the scalar folded path is the gate's subject
fn distilled_decision_path_is_allocation_free_after_warmup() {
    let _serial = serial();
    let policy = distilled_policy();
    let periods = periods();

    let mut folded = Vec::new();
    let mut out = Vec::new();
    // Warmup: sizes the fold buffer and the output vector once.
    let cursor = policy.prewalk(&periods[0][0]).expect("prewalk");
    policy
        .fold(cursor, &periods[0][0], &mut folded)
        .expect("fold");
    policy
        .predict_folded(cursor, &folded, &periods[0][0], &mut out)
        .expect("predict");

    let count = allocations_during(|| {
        for period in &periods {
            let cursor = policy.prewalk(&period[0]).expect("prewalk");
            policy.fold(cursor, &period[0], &mut folded).expect("fold");
            for x in period {
                policy
                    .predict_folded(cursor, &folded, x, &mut out)
                    .expect("predict");
            }
        }
    });
    assert_eq!(
        count, 0,
        "{count} allocations across 10 periods × 5 decisions — the \
         prewalk/fold/predict path must reuse its buffers"
    );
}

#[test]
fn warm_fold_table_hits_allocate_nothing() {
    let _serial = serial();
    let table = FoldTable::new(Arc::new(distilled_policy()), FoldTable::DEFAULT_CAPACITY);
    let periods = periods();
    // Warmup: each period's first sighting records its prefix, the
    // second builds and publishes the fold.
    for period in &periods {
        assert!(table.lookup(&period[0]).expect("lookup").is_none());
        assert!(table.lookup(&period[0]).expect("lookup").is_some());
    }

    let count = allocations_during(|| {
        for period in &periods {
            for x in period {
                let entry = table.lookup(x).expect("lookup");
                assert!(entry.is_some(), "a warm prefix must hit its fold");
            }
        }
    });
    assert_eq!(
        count, 0,
        "{count} allocations across 50 warm fold-table hits — the hit \
         path must build its key on the stack and only clone an `Arc`"
    );
}
