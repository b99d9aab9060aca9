//! What one served write allocates, counted by a global allocator.
//!
//! A write should pay for its delta. Two things it must not pay for:
//!
//! * **History.** The snapshot clone at the start of
//!   `ServiceCore::write` must not copy the sealed delta log, so a write
//!   at log depth 256 allocates what one at depth 8 does.
//! * **Cache size.** With no subscriber, nothing digests the answers a
//!   write keeps, so a write that leaves 1,000-row answers in place
//!   allocates what one that leaves 10-row answers does.
//!
//! Both settings of each pair hold the same data and run the same
//! writes; only the log depth, or the `WHERE` bound of the cached
//! queries, differs. The file holds one test, so no other test's
//! allocations land in the counters.

use proql::engine::EngineOptions;
use proql_common::{trace, tup, Parallelism, Schema, ValueType};
use proql_provgraph::ProvenanceSystem;
use proql_service::ServiceCore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, and the bytes they ask for.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rows in `X` (and, through `mxy`, in `Y`).
const ROWS: i64 = 1_000;

/// `X → Y` through `mxy`, with `ROWS` rows exchanged.
fn system() -> ProvenanceSystem {
    let mut sys = ProvenanceSystem::new();
    for name in ["X", "Y"] {
        sys.add_relation_with_local(
            Schema::build(name, &[("id", ValueType::Int), ("w", ValueType::Int)], &[0]).unwrap(),
        )
        .unwrap();
    }
    sys.add_mapping_text("mxy: Y(i, w) :- X(i, w)").unwrap();
    for i in 0..ROWS {
        sys.insert_local("X", tup![i, i % 7]).unwrap();
    }
    sys.run_exchange().unwrap();
    sys
}

/// A serial, untraced core holding two `EVALUATE` answers over
/// `Y.id < bound`. Every write below inserts an id of at least `ROWS`,
/// so the relevance filter keeps both answers as they are.
fn core_with_answers(bound: i64) -> ServiceCore {
    let options = EngineOptions {
        parallelism: Parallelism::Serial,
        ..EngineOptions::default()
    };
    let core = ServiceCore::new(system(), options);
    // The span ring's growth would land in the counts.
    trace::set_enabled(false);
    let paths = format!("FOR [Y $x] INCLUDE PATH [$x] <-+ [] WHERE $x.id < {bound} RETURN $x");
    for semiring in ["COUNT", "LINEAGE"] {
        let answer = core
            .query(&format!("EVALUATE {semiring} OF {{ {paths} }}"))
            .unwrap();
        let rows = answer.output.annotated.as_ref().unwrap().rows.len();
        assert_eq!(rows as i64, bound, "{semiring}");
    }
    core
}

/// Insert `X(id, 0)` through the served write path and exchange it.
fn write(core: &ServiceCore, id: i64) {
    core.insert_and_exchange("X", tup![id, 0]).unwrap();
}

/// The fewest allocations (and their bytes) among three measured writes.
fn measured_write(core: &ServiceCore, first_id: i64) -> (u64, u64) {
    (first_id..first_id + 3)
        .map(|id| {
            let (a0, b0) = (
                ALLOCS.load(Ordering::Relaxed),
                BYTES.load(Ordering::Relaxed),
            );
            write(core, id);
            (
                ALLOCS.load(Ordering::Relaxed) - a0,
                BYTES.load(Ordering::Relaxed) - b0,
            )
        })
        .min()
        .unwrap()
}

fn assert_close(what: &str, a: (u64, u64), b: (u64, u64)) {
    let allocs = a.0.abs_diff(b.0);
    let bytes = a.1.abs_diff(b.1);
    assert!(
        allocs <= 16 && bytes <= 16 << 10,
        "{what}: {} allocations ({} B) against {} ({} B)",
        a.0,
        a.1,
        b.0,
        b.1
    );
}

#[test]
fn a_write_allocates_for_its_delta_not_for_history_or_cache_size() {
    // History: the same 128 writes, with the log cut short by a chain
    // rotation before the last four on one side. An insert-and-exchange
    // seals two entries.
    let shallow = core_with_answers(10);
    for id in ROWS..ROWS + 124 {
        write(&shallow, id);
    }
    shallow.rotate_delta_chain().unwrap();
    for id in ROWS + 124..ROWS + 128 {
        write(&shallow, id);
    }
    let deep = core_with_answers(10);
    for id in ROWS..ROWS + 128 {
        write(&deep, id);
    }
    assert_eq!(shallow.stats().delta_log_depth, 8);
    assert_eq!(deep.stats().delta_log_depth, 256);
    let at_8 = measured_write(&shallow, 2 * ROWS);
    let at_256 = measured_write(&deep, 2 * ROWS);
    println!("depth 8: {at_8:?}, depth 256: {at_256:?}");
    assert_close("log depth 8 vs 256", at_8, at_256);

    // Cache size: the same data and writes, kept answers of 10 rows or
    // of 1,000.
    let small = core_with_answers(10);
    let large = core_with_answers(ROWS);
    let kept_10 = measured_write(&small, 2 * ROWS);
    let kept_1000 = measured_write(&large, 2 * ROWS);
    println!("10-row answers: {kept_10:?}, 1,000-row answers: {kept_1000:?}");
    assert_close("kept answers of 10 vs 1,000 rows", kept_10, kept_1000);
    let unchanged = large.stats().cache.maint_unchanged;
    assert_eq!(unchanged, 2 * 3, "both answers kept by every write");
}
