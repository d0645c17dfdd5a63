//! Per-run flat storage for protocol node state.
//!
//! A protocol stage allocates each kind of node state once, as one arena
//! for the whole run, and every node borrows its own disjoint part. Node
//! states then hold `&mut` slices instead of owning per-node collections,
//! so a run costs a handful of allocations instead of several per node.
//! The slices are `Send`, so the sharded executor can still move the
//! nodes to its workers.

/// Hands out consecutive, disjoint slices of one arena.
pub(crate) struct Carve<'a, T>(&'a mut [T]);

impl<'a, T> Carve<'a, T> {
    pub(crate) fn new(arena: &'a mut [T]) -> Self {
        Carve(arena)
    }

    /// The next `len` entries.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` entries are left.
    pub(crate) fn take(&mut self, len: usize) -> &'a mut [T] {
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(len);
        self.0 = tail;
        head
    }
}

/// A fixed-width bitset row: bit `i` of `words`.
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// Sets bit `i` of `words`; returns whether it was clear.
pub(crate) fn set_bit(words: &mut [u64], i: usize) -> bool {
    let (w, mask) = (i / 64, 1u64 << (i % 64));
    let fresh = words[w] & mask == 0;
    words[w] |= mask;
    fresh
}
