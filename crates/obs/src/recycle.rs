//! Per-thread slots for recycled solver buffers.
//!
//! At the paper's Table I size, one solve builds a model of thousands of
//! constraints, and allocating, page-faulting and freeing its buffers can
//! cost more than a short search. So the solvers of this workspace
//! (`rt_sat`'s formula and solver, `csp_engine`'s solver) hand their
//! buffers to a slot of the current thread when they are dropped, and the
//! next construction on that thread takes them back: a thread that solves
//! one model after another allocates only when a model outgrows every
//! earlier one.
//!
//! Each slot holds at most one set of buffers, and only a set of at most
//! [`MAX_RECYCLED_BYTES`]; a larger set is freed on drop. The slots are
//! thread-local because engines are shared across worker threads: a slot
//! needs no lock, and a thread that exits frees its own.

use std::cell::Cell;
use std::thread::LocalKey;

/// The largest set of buffers one slot keeps, in bytes of capacity. An
/// average Table I SAT formula and its solver take about 8 MB together;
/// the largest of the first 120 instances of seed 2009 leaves a 4 MB
/// formula set and a 16 MB solver set behind, and a `csp_engine` solver
/// set of the same stream (CSP1, 21 000 variables) about 9 MB. The cap
/// keeps all of them, while a model of hundreds of MB (which the CSP1 size
/// guard admits) is never retained by a worker.
pub const MAX_RECYCLED_BYTES: usize = 32 << 20;

/// A thread's slot for one kind of buffer set.
pub type Slot<T> = LocalKey<Cell<Option<T>>>;

/// Take the set parked in `slot` on this thread, if any.
pub fn take<T: 'static>(slot: &'static Slot<T>) -> Option<T> {
    slot.try_with(Cell::take).ok().flatten()
}

/// Park `set` in `slot` when it holds at most [`MAX_RECYCLED_BYTES`],
/// replacing (and freeing) a set parked there before; free it otherwise,
/// or when the thread is already tearing its slots down.
pub fn put<T: 'static>(slot: &'static Slot<T>, set: T, bytes: usize) {
    if bytes <= MAX_RECYCLED_BYTES {
        let _ = slot.try_with(|s| s.set(Some(set)));
    }
}

/// Bytes of capacity held by `v`.
#[must_use]
pub fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Empty `v` and refill it with `n` copies of `value`, reusing its
/// capacity.
pub fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// Whether this thread's `slot` holds a set, leaving it in place (for
/// tests of the recycling).
#[must_use]
pub fn parked<T: 'static>(slot: &'static Slot<T>) -> bool {
    slot.with(|s| {
        let set = s.take();
        let held = set.is_some();
        s.set(set);
        held
    })
}
