//! Session-scoped reuse of [`RunBuffers`] across runs, message types, and
//! graphs — the allocation-amortization layer under `dsf-service`. See
//! [`BufferPool`].

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

use dsf_graph::WeightedGraph;

use crate::buffers::{CsrTopology, RunBuffers};
use crate::message::Message;

/// Arena-traffic counters of one [`BufferPool`].
///
/// `builds` counts CSR arena allocations (a checkout that found no pooled
/// arena for its `(message type, graph)` key), `reuses` counts checkouts
/// served by clearing a pooled arena in place. A warmed-up session solving
/// the same graph repeatedly holds `builds` constant while `reuses` grows —
/// the steady-state zero-allocation property the `dsf-server` tests
/// assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served by resetting a pooled arena in place (no
    /// allocation).
    pub reuses: u64,
    /// Checkouts that had to allocate (or, on a fingerprint collision,
    /// rebuild) a slot arena.
    pub builds: u64,
}

/// A pool of reusable [`RunBuffers`], keyed by message type and graph
/// fingerprint, installed per-thread for the duration of a
/// [`BufferPool::scope`] call.
///
/// [`crate::run_with_buffers`] already makes *one* protocol stage
/// allocation-free, but a whole solver (`solve_deterministic`,
/// `solve_randomized`, …) is a composition of many stages with
/// *different* message types, each of which calls [`crate::run`]
/// internally — and each such call used to allocate a fresh CSR slot
/// arena. A `BufferPool` closes that gap: while a pool is installed on
/// the current thread (via [`BufferPool::scope`]), every single-threaded
/// [`crate::run`] checks the pool for an arena keyed by `(message type,
/// graph fingerprint)` before allocating, and returns it to the pool
/// afterwards. Repeated solves over the same graph therefore allocate
/// **zero** steady-state arena memory, no matter how many stages and
/// message types the solver composes.
///
/// Reuse is observable only through [`PoolStats`] — a pooled arena is
/// [`RunBuffers::reset_for`]-cleared before every run, so results stay
/// bit-identical with or without a pool (the determinism contract of
/// [`crate::run`] is unaffected; property-tested in this module and
/// end-to-end by the `dsf-server` batch tests).
///
/// The pool is plain owned data (`Send`), so a solver session can carry
/// it from batch to batch and across worker threads; it is only
/// *consulted* through the thread-local installation `scope` performs.
/// Memory is bounded: at most [`BufferPool::capacity`] arenas are held
/// (default [`BufferPool::DEFAULT_CAPACITY`]), with the
/// least-recently-used arena evicted deterministically when a checkin
/// would exceed the bound — so a long-running service over an unbounded
/// stream of distinct graphs cannot grow without limit. An evicted
/// graph's next solve simply rebuilds (counted in [`PoolStats::builds`]);
/// [`BufferPool::clear`] drops everything at once.
///
/// # Example
///
/// ```
/// use dsf_congest::{run, with_threads, BufferPool, CongestConfig, Message, NodeCtx, Outbox,
///                   Protocol};
/// use dsf_graph::{generators, NodeId};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Message for Ping {
///     fn encoded_bits(&self) -> usize { 1 }
/// }
/// struct Once(bool);
/// impl Protocol for Once {
///     type Msg = Ping;
///     fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Ping>) {
///         out.send_all(ctx, Ping);
///         self.0 = true;
///     }
///     fn round(&mut self, _: &NodeCtx, _: &[(NodeId, Ping)], _: &mut Outbox<Ping>) {}
///     fn done(&self) -> bool { self.0 }
/// }
///
/// let g = generators::path(6, 1);
/// let cfg = CongestConfig::for_graph(&g);
/// let mut pool = BufferPool::new();
/// for _ in 0..3 {
///     let nodes = (0..6).map(|_| Once(false)).collect();
///     // Pin the single-threaded engine: only it consults the pool (the
///     // sharded engine owns per-worker state instead), so the counters
///     // below hold under any ambient DSF_THREADS.
///     pool.scope(|| with_threads(1, || run(&g, nodes, &cfg))).unwrap();
/// }
/// // First solve built the arena; the two repeats reused it in place.
/// assert_eq!(pool.stats().builds, 1);
/// assert_eq!(pool.stats().reuses, 2);
/// ```
#[derive(Debug)]
pub struct BufferPool {
    /// Type-erased `RunBuffers<M>` values tagged with the [`BufferPool::tick`]
    /// of their last checkin; the key's `TypeId` is `M`'s. Recency is O(1)
    /// per touch (stamp on insert, gone on remove); the O(len) min-tick
    /// scan runs only when an eviction is actually needed, i.e. when a
    /// *new* key enters a full pool — which already paid an O(n + m)
    /// arena build, so steady-state traffic over warm keys never scans.
    slots: HashMap<(TypeId, u64), (u64, Box<dyn Any + Send>)>,
    /// Monotonic checkin counter; higher = more recently used.
    tick: u64,
    /// Most arenas retained at once.
    capacity: usize,
    stats: PoolStats,
}

impl Default for BufferPool {
    /// An empty pool with [`BufferPool::DEFAULT_CAPACITY`].
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

thread_local! {
    /// The pool installed on this thread by [`BufferPool::scope`], if any.
    static INSTALLED: RefCell<Option<BufferPool>> = const { RefCell::new(None) };
}

impl BufferPool {
    /// Default bound on retained arenas. Generous for any realistic mix
    /// of solver stages × recurring graphs, while capping worst-case
    /// memory on an unbounded stream of distinct graphs.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An empty pool with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool retaining at most `capacity` arenas (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        BufferPool {
            slots: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            stats: PoolStats::default(),
        }
    }

    /// The most arenas this pool retains at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The pool's arena-traffic counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of pooled arenas currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool holds no arenas.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops every pooled arena (the stats are kept).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Installs the pool on the current thread for the duration of `f`:
    /// every single-threaded [`crate::run`] inside `f` checks out its
    /// [`RunBuffers`] from this pool instead of allocating, and checks
    /// them back in when done.
    ///
    /// The pool is moved into thread-local storage and moved back out when
    /// `f` returns — including on unwind, so a panicking solver does not
    /// lose the pool. Multi-threaded runs ([`crate::run_sharded`], or
    /// [`crate::run`] with `DSF_THREADS > 1`) are unaffected: their
    /// per-shard state is not pooled.
    ///
    /// Scopes nest gracefully: the innermost pool shadows any outer one
    /// for the duration of `f` (every checkout/checkin inside goes to the
    /// inner pool), and the outer installation is restored — arenas and
    /// stats untouched — when `f` returns or unwinds. A solver session
    /// dispatched from inside another session's scope (e.g. a server
    /// worker composing pooled components) therefore cannot panic here;
    /// each pool just keeps its own accounting.
    pub fn scope<R>(&mut self, f: impl FnOnce() -> R) -> R {
        // Shadow any outer installation; `Restore` puts it back on exit —
        // including on unwind, so a panicking solver loses neither pool.
        let shadowed = INSTALLED.with(|slot| slot.borrow_mut().replace(std::mem::take(self)));
        struct Restore<'a> {
            target: &'a mut BufferPool,
            shadowed: Option<BufferPool>,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                INSTALLED.with(|slot| {
                    let mine = std::mem::replace(&mut *slot.borrow_mut(), self.shadowed.take());
                    if let Some(pool) = mine {
                        *self.target = pool;
                    }
                });
            }
        }
        let _restore = Restore {
            target: self,
            shadowed,
        };
        f()
    }
}

/// Checks out buffers for a run of message type `M` on `g` from the pool
/// installed on this thread, if any. `Some` is returned whenever a pool is
/// installed — served from the pool when a matching arena is held, freshly
/// allocated (and counted as a build) otherwise. `None` means no pool is
/// installed and the caller should allocate as before.
pub(crate) fn checkout<M: Message + Send + 'static>(g: &WeightedGraph) -> Option<RunBuffers<M>> {
    let key = (TypeId::of::<M>(), CsrTopology::fingerprint_of(g));
    INSTALLED.with(|slot| {
        let mut slot = slot.borrow_mut();
        let pool = slot.as_mut()?;
        match pool.slots.remove(&key) {
            Some((_tick, boxed)) => {
                let buf = *boxed
                    .downcast::<RunBuffers<M>>()
                    .expect("pool slots are keyed by their message TypeId");
                // The key's fingerprint matched, but the fingerprint is 64
                // bits over the adjacency structure — guard the (astronomically
                // unlikely) collision between structurally different graphs
                // with O(1) shape checks before trusting the arena: reusing a
                // mismatched `off`/`mate` layout would silently misroute
                // messages.
                let shape_matches =
                    buf.topo.n == g.n() && buf.topo.off.last().copied() == Some(2 * g.m() as u32);
                if shape_matches {
                    // No reset here: `run_with_buffers` resets the buffers
                    // at the start of every run, and doing it twice would
                    // clear the O(n + m) shard state redundantly on the
                    // hot path.
                    pool.stats.reuses += 1;
                    Some(buf)
                } else {
                    pool.stats.builds += 1;
                    Some(RunBuffers::for_graph(g))
                }
            }
            None => {
                pool.stats.builds += 1;
                Some(RunBuffers::for_graph(g))
            }
        }
    })
}

/// Returns buffers checked out via [`checkout`] to this thread's installed
/// pool, keyed by the graph they are currently built for, evicting the
/// least-recently-used arena when the pool is at capacity. A no-op when
/// the pool was uninstalled in between (the buffers are simply dropped).
pub(crate) fn checkin<M: Message + Send + 'static>(buf: RunBuffers<M>) {
    let key = (TypeId::of::<M>(), buf.topo.fingerprint);
    INSTALLED.with(|slot| {
        if let Some(pool) = slot.borrow_mut().as_mut() {
            pool.tick += 1;
            pool.slots.insert(key, (pool.tick, Box::new(buf)));
            // Eviction order matches the old explicit LRU list: smallest
            // checkin tick = least recently checked in. The scan only runs
            // when this checkin grew the pool past capacity, i.e. after a
            // fresh build — warm-key traffic stays O(1).
            while pool.slots.len() > pool.capacity {
                let victim = pool
                    .slots
                    .iter()
                    .min_by_key(|(_, (tick, _))| *tick)
                    .map(|(k, _)| *k)
                    .expect("pool is over capacity, so it is nonempty");
                pool.slots.remove(&victim);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{CongestConfig, NodeCtx, Outbox, Protocol, RunResult, SimError};
    use crate::shard::with_threads;
    use dsf_graph::{generators, NodeId, WeightedGraph};

    /// `crate::run` pinned to the single-threaded engine — the only one
    /// that consults the pool — so these tests hold under any ambient
    /// `DSF_THREADS`.
    fn run<P>(
        g: &WeightedGraph,
        nodes: Vec<P>,
        cfg: &CongestConfig,
    ) -> Result<RunResult<P>, SimError>
    where
        P: Protocol + Send,
        P::Msg: Send + 'static,
    {
        with_threads(1, || crate::scheduler::run(g, nodes, cfg))
    }

    #[derive(Clone, Debug)]
    struct Ping;
    impl Message for Ping {
        fn encoded_bits(&self) -> usize {
            8
        }
    }

    #[derive(Clone, Debug)]
    struct Pong;
    impl Message for Pong {
        fn encoded_bits(&self) -> usize {
            8
        }
    }

    struct Flood<M: Clone> {
        have: bool,
        sent: bool,
        msg: M,
    }

    impl<M: Message + Clone + 'static> Protocol for Flood<M> {
        type Msg = M;
        fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<M>) {
            if ctx.id == NodeId(0) {
                self.have = true;
                out.send_all(ctx, self.msg.clone());
                self.sent = true;
            }
        }
        fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, M)], out: &mut Outbox<M>) {
            if !inbox.is_empty() {
                self.have = true;
            }
            if self.have && !self.sent {
                out.send_all(ctx, self.msg.clone());
                self.sent = true;
            }
        }
        fn done(&self) -> bool {
            self.have
        }
    }

    fn flood_nodes<M: Clone>(n: usize, msg: M) -> Vec<Flood<M>> {
        (0..n)
            .map(|_| Flood {
                have: false,
                sent: false,
                msg: msg.clone(),
            })
            .collect()
    }

    #[test]
    fn pool_reuses_per_message_type_and_graph() {
        let a = generators::path(8, 1);
        let b = generators::ring(8, 3, 0);
        let cfg_a = CongestConfig::for_graph(&a);
        let cfg_b = CongestConfig::for_graph(&b);
        let mut pool = BufferPool::new();
        for _ in 0..3 {
            // Two message types on graph a, one on graph b: three slots.
            pool.scope(|| run(&a, flood_nodes(8, Ping), &cfg_a))
                .unwrap();
            pool.scope(|| run(&a, flood_nodes(8, Pong), &cfg_a))
                .unwrap();
            pool.scope(|| run(&b, flood_nodes(8, Ping), &cfg_b))
                .unwrap();
        }
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.stats().builds, 3, "one build per (type, graph) key");
        assert_eq!(pool.stats().reuses, 6, "every repeat reused in place");
    }

    #[test]
    fn capacity_evicts_least_recently_used_arena() {
        let a = generators::path(4, 1);
        let b = generators::path(5, 1);
        let c = generators::path(6, 1);
        let mut pool = BufferPool::with_capacity(2);
        for g in [&a, &b, &c] {
            let cfg = CongestConfig::for_graph(g);
            pool.scope(|| run(g, flood_nodes(g.n(), Ping), &cfg))
                .unwrap();
        }
        // Capacity 2: `a` (least recently used) was evicted.
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().builds, 3);
        // `b` is still warm...
        let cfg = CongestConfig::for_graph(&b);
        pool.scope(|| run(&b, flood_nodes(5, Ping), &cfg)).unwrap();
        assert_eq!(pool.stats().reuses, 1);
        // ...while `a` must rebuild.
        let cfg = CongestConfig::for_graph(&a);
        pool.scope(|| run(&a, flood_nodes(4, Ping), &cfg)).unwrap();
        assert_eq!(pool.stats().builds, 4);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pooled_runs_are_bit_identical_to_fresh_runs() {
        let g = generators::gnp_connected(24, 0.15, 9, 3);
        let cfg = CongestConfig::for_graph(&g);
        let fresh = run(&g, flood_nodes(24, Ping), &cfg).unwrap();
        let mut pool = BufferPool::new();
        for _ in 0..2 {
            let pooled = pool.scope(|| run(&g, flood_nodes(24, Ping), &cfg)).unwrap();
            assert_eq!(pooled.metrics, fresh.metrics);
            assert_eq!(pooled.stats, fresh.stats);
        }
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn scope_restores_the_pool_on_unwind() {
        let g = generators::path(4, 1);
        let cfg = CongestConfig::for_graph(&g);
        let mut pool = BufferPool::new();
        pool.scope(|| run(&g, flood_nodes(4, Ping), &cfg)).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|| panic!("solver blew up"))
        }));
        assert!(caught.is_err());
        // The pool survived the unwind with its arena intact.
        assert_eq!(pool.len(), 1);
        pool.scope(|| run(&g, flood_nodes(4, Ping), &cfg)).unwrap();
        assert_eq!(
            pool.stats(),
            PoolStats {
                reuses: 1,
                builds: 1
            }
        );
    }

    #[test]
    fn nested_scope_shadows_the_outer_pool_and_restores_it() {
        let g = generators::path(6, 1);
        let cfg = CongestConfig::for_graph(&g);
        let mut outer = BufferPool::new();
        let mut inner = BufferPool::new();
        // Warm the outer pool, then run inside a nested inner scope: the
        // inner pool takes the traffic, the outer is restored untouched.
        outer.scope(|| run(&g, flood_nodes(6, Ping), &cfg)).unwrap();
        outer.scope(|| {
            inner.scope(|| run(&g, flood_nodes(6, Ping), &cfg)).unwrap();
            // Back under the outer installation: this run reuses the
            // outer pool's warm arena.
            run(&g, flood_nodes(6, Ping), &cfg).unwrap();
        });
        assert_eq!(
            inner.stats(),
            PoolStats {
                reuses: 0,
                builds: 1
            },
            "the inner scope took its own traffic"
        );
        assert_eq!(
            outer.stats(),
            PoolStats {
                reuses: 1,
                builds: 1
            },
            "the outer pool was shadowed during the inner scope, then restored"
        );
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 1);
    }

    #[test]
    fn nested_scope_survives_an_inner_unwind() {
        let g = generators::path(4, 1);
        let cfg = CongestConfig::for_graph(&g);
        let mut outer = BufferPool::new();
        let mut inner = BufferPool::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            outer.scope(|| {
                run(&g, flood_nodes(4, Ping), &cfg).unwrap();
                inner.scope(|| panic!("inner solver blew up"))
            })
        }));
        assert!(caught.is_err());
        // Both pools survived the unwind with their state intact.
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 0);
        outer.scope(|| run(&g, flood_nodes(4, Ping), &cfg)).unwrap();
        assert_eq!(
            outer.stats(),
            PoolStats {
                reuses: 1,
                builds: 1
            }
        );
    }

    #[test]
    fn steady_state_churn_keeps_lru_order_at_capacity() {
        // Regression for the O(capacity) `retain` on every touch: beyond
        // the complexity fix, eviction order must stay observably LRU.
        // Cycle 3 graphs through a capacity-2 pool twice: every checkin of
        // a not-held graph evicts the least recently used one, so no run
        // ever finds its arena pooled — 6 builds, 0 reuses.
        let graphs = [
            generators::path(4, 1),
            generators::path(5, 1),
            generators::path(6, 1),
        ];
        let mut pool = BufferPool::with_capacity(2);
        for _ in 0..2 {
            for g in &graphs {
                let cfg = CongestConfig::for_graph(g);
                pool.scope(|| run(g, flood_nodes(g.n(), Ping), &cfg))
                    .unwrap();
            }
        }
        assert_eq!(
            pool.stats(),
            PoolStats {
                reuses: 0,
                builds: 6
            }
        );
        assert_eq!(pool.len(), 2);
        // The two most recent graphs are the ones retained.
        for g in &graphs[1..] {
            let cfg = CongestConfig::for_graph(g);
            pool.scope(|| run(g, flood_nodes(g.n(), Ping), &cfg))
                .unwrap();
        }
        assert_eq!(pool.stats().reuses, 2);
    }
}
