//! Allocation budgets of warm solves.
//!
//! A `SolverSession` keeps the executor's slot arenas warm in its pool,
//! and the protocol stages keep their node state in a few per-run arenas
//! instead of per-node collections. These tests count the heap
//! allocations of the third solve of one request on one session (det on
//! a 64×64 grid; randomized and khan on a 64-node gnp graph) and hold them
//! under a budget: a stage that goes back to per-node hash sets, queues,
//! route tables or cloned lists costs thousands of allocations per run
//! and fails it.
//!
//! The test binary installs its own counting global allocator, which
//! counts only on the thread that runs the measured solve.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use steiner_forest::graph::generators;
use steiner_forest::service::{SolveRequest, SolverKind, SolverSession};
use steiner_forest::steiner::random_instance;

/// Allocations allowed in the third warm det solve of the 64×64 grid
/// (11,043 measured; one children list per BFS node costs 4,000 more).
const DET_BUDGET: u64 = 12_000;
/// Allocations allowed in the third warm randomized solve of a 64-node
/// gnp graph (6,812 measured; per-node route hash tables cost about 450
/// more).
const RANDOMIZED_BUDGET: u64 = 7_150;
/// Allocations allowed in the third warm khan solve of the same request
/// (9,810 measured).
const KHAN_BUDGET: u64 = 10_300;

struct Counting;

thread_local! {
    /// Allocation calls on this thread while `counting` is set.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the wrapper only
// bumps a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation calls made by `f` on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (CALLS.with(Cell::get), r)
}

/// Allocation calls of the third solve of `req` on one session; the
/// third result must equal the first.
fn third_warm_solve(req: &SolveRequest) -> u64 {
    let mut session = SolverSession::new();
    let first = session.solve(req).expect("first solve");
    session.solve(req).expect("second solve");
    let (calls, third) = allocations(|| session.solve(req).expect("third solve"));
    assert_eq!(third.forest, first.forest, "warm solves are bit-identical");
    calls
}

fn assert_within(what: &str, calls: u64, budget: u64) {
    eprintln!("third warm {what} solve: {calls} allocations (budget {budget})");
    assert!(
        calls <= budget,
        "third warm {what} solve made {calls} allocations, over the budget of {budget}"
    );
}

#[test]
fn a_warm_det_solve_stays_within_its_allocation_budget() {
    let g = Arc::new(generators::grid(64, 64, 16, 1 ^ 0x61));
    let inst = random_instance(&g, 8, 4, 1 ^ 0x63);
    let req = SolveRequest::new("grid64", g, inst, SolverKind::Deterministic, 1);
    assert_within("det", third_warm_solve(&req), DET_BUDGET);
}

/// The 64-node request of the randomized and khan budgets.
fn small_request(kind: SolverKind) -> SolveRequest {
    let g = Arc::new(generators::gnp_connected(64, 6.0 / 64.0, 16, 5));
    let inst = random_instance(&g, 6, 2, 7);
    SolveRequest::new("gnp64", g, inst, kind, 3)
}

#[test]
fn a_warm_randomized_solve_stays_within_its_allocation_budget() {
    let calls = third_warm_solve(&small_request(SolverKind::Randomized));
    assert_within("randomized", calls, RANDOMIZED_BUDGET);
}

#[test]
fn a_warm_khan_solve_stays_within_its_allocation_budget() {
    let calls = third_warm_solve(&small_request(SolverKind::Khan));
    assert_within("khan", calls, KHAN_BUDGET);
}
