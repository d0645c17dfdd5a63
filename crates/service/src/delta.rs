//! Incremental re-solve: demand and graph deltas repairing a cached
//! forest on a warm [`SolverSession`].
//!
//! Production Steiner-forest traffic is not a stream of fresh instances:
//! demand pairs arrive and depart on a mostly-stable network, and an
//! occasional link is re-priced. Re-running a solver from scratch per
//! delta throws away the previous solution. This module keeps one cached
//! solve per session — graph, demand set, and the current
//! [`ForestSolution`] — keyed by [`WeightedGraph::fingerprint`], and
//! exposes three deltas that *repair* the cached forest instead:
//!
//! * [`SolverSession::add_demand`] connects the new component through a
//!   contracted-metric Dijkstra over the cached forest
//!   ([`repair::connect_terminals`], selected edges cost 0);
//! * [`SolverSession::remove_demand`] rolls the departed component back
//!   via the union-find pruning pass
//!   ([`ForestSolution::prune_to_minimal`] against the shrunk instance);
//! * [`SolverSession::reweight_edge`] re-prices one edge and lets the
//!   repair pass react. The graph is not rebuilt: the re-priced graph
//!   ([`WeightedGraph::with_weight`]) copies only the edge list and
//!   shares the adjacency, and edge ids are stable. A re-price that would
//!   bring the total edge weight to [`dsf_graph::INF`] is refused
//!   ([`DeltaError::WeightOverflow`]), so no path sum can reach
//!   Dijkstra's clamp.
//!
//! Every repaired forest is then *finished* by [`repair::optimize`],
//! the scoped fixpoint over swap, replace, whole-component-reroute and
//! Steiner-elimination moves. The scope is seeded with exactly the
//! nodes the delta disturbed (new terminals, rollback scars, the
//! re-priced edge's endpoints), so untouched trees are never
//! re-scanned; a chord whose price only went *up* needs no search at
//! all. The churn lab (`tests/churn.rs`, `bench_runner
//! --churn`) holds the result to the from-scratch quality envelope:
//! feasible, within the certified ratio bound, and never heavier than a
//! fresh `greedy + local_search` solve of the post-delta instance.
//! Deltas that may have entangled trees or shifted the metric race such a
//! from-scratch candidate and keep the lighter forest
//! ([`DeltaStats::races`], [`DeltaStats::race_wins`]).
//!
//! Every Dijkstra on this path reads a few nodes of a large graph, so it
//! stops once those nodes are settled
//! ([`dsf_graph::dijkstra::multi_source_to`]); repairs pay for what the
//! delta touched, not for the whole graph.
//!
//! Installing a graph whose fingerprint differs from the cached one
//! drops the cached state entirely — repairs never run against the wrong
//! topology ([`SolverSession::install_graph`]).

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use dsf_graph::{dijkstra, EdgeId, NodeId, Weight, WeightedGraph, INF};
use dsf_steiner::{greedy, local_search, repair};
use dsf_steiner::{ForestSolution, Instance, InstanceBuilder, InstanceError};

use crate::session::SolverSession;

/// Stable handle of one demand component in a session's incremental
/// state. Handles survive unrelated removals (unlike
/// [`dsf_steiner::ComponentId`], which indexes the current instance and
/// shifts when an earlier component departs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DemandId(pub u64);

impl fmt::Display for DemandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Errors raised by the delta API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// No graph installed ([`SolverSession::install_graph`] first).
    NoGraph,
    /// The demand handle is unknown or already removed.
    UnknownDemand(DemandId),
    /// The new demand violates the instance rules (terminal overlap,
    /// empty component, node out of range).
    Instance(InstanceError),
    /// The reweight target edge id is out of range.
    EdgeOutOfRange(EdgeId),
    /// Reweight to zero (the model requires weights in `N`, Section 2).
    ZeroWeight(EdgeId),
    /// The re-price would bring the graph's total edge weight to
    /// [`dsf_graph::INF`] or above, where path sums could reach
    /// Dijkstra's clamp.
    WeightOverflow(EdgeId, Weight),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NoGraph => write!(f, "no graph installed in this session"),
            DeltaError::UnknownDemand(d) => write!(f, "unknown or removed demand {d}"),
            DeltaError::Instance(e) => write!(f, "invalid demand: {e}"),
            DeltaError::EdgeOutOfRange(e) => write!(f, "edge {e} out of range"),
            DeltaError::ZeroWeight(e) => write!(f, "zero weight for edge {e}"),
            DeltaError::WeightOverflow(e, w) => write!(
                f,
                "re-pricing edge {e} to {w} brings the total edge weight to INF or above"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<InstanceError> for DeltaError {
    fn from(e: InstanceError) -> Self {
        DeltaError::Instance(e)
    }
}

/// What one delta did to the cached solution.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The repaired forest (also cached in the session).
    pub forest: ForestSolution,
    /// Its total weight on the session's current graph.
    pub weight: Weight,
    /// Accepted repair moves: local-search swaps/replaces plus
    /// whole-component reroutes of the finishing pass.
    pub moves: u64,
    /// Wall-clock of the repair, report-only (never part of any
    /// deterministic comparison).
    pub wall_ns: u64,
    /// The part of `wall_ns` spent racing the from-scratch
    /// `greedy + local_search` candidate (and polishing it when it wins),
    /// report-only; 0 when the delta ran no race. `wall_ns − race_ns` is
    /// the scoped repair.
    pub race_ns: u64,
}

/// Counters of a session's incremental activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// [`SolverSession::install_graph`] calls.
    pub installs: u64,
    /// Installs that hit the fingerprint cache (state survived).
    pub cache_hits: u64,
    /// Installs that dropped cached state because the fingerprint
    /// changed (plus the first install of a cold session).
    pub rebuilds: u64,
    /// Deltas applied (adds + removals + reweights).
    pub deltas: u64,
    /// Total accepted repair moves across all deltas.
    pub moves: u64,
    /// From-scratch `greedy + local_search` candidates computed to race a
    /// repaired forest.
    pub races: u64,
    /// Race candidates that were lighter than the repaired forest and
    /// were adopted.
    pub race_wins: u64,
}

/// The cached solve a session repairs incrementally.
#[derive(Debug)]
pub(crate) struct IncrementalState {
    /// The cache key is this graph's fingerprint.
    graph: Arc<WeightedGraph>,
    /// Active demands in arrival order, keyed by stable handle.
    demands: Vec<(DemandId, Vec<NodeId>)>,
    next_id: u64,
    /// The instance built from `demands` (rebuilt per delta).
    instance: Instance,
    forest: ForestSolution,
}

/// Below this many demand components an add races a from-scratch solve:
/// the cached forest is too thin to give the attach an edge, and a fresh
/// solve of so small an instance costs little.
const SMALL_INSTANCE_RACE_K: usize = 4;

/// Builds the instance for the current demand list.
fn build_instance(
    g: &WeightedGraph,
    demands: &[(DemandId, Vec<NodeId>)],
) -> Result<Instance, InstanceError> {
    let mut b = InstanceBuilder::new(g);
    for (_, terms) in demands {
        b = b.component(terms);
    }
    b.build()
}

/// Finishes a repaired forest to the deterministic scoped local optimum
/// of [`repair::optimize`] (swap/replace/reroute/Steiner-elimination
/// moves over the dirtied trees). Returns the forest and the number of
/// accepted moves.
fn finish(
    g: &WeightedGraph,
    inst: &Instance,
    start: ForestSolution,
    scope: &[NodeId],
) -> (ForestSolution, u64) {
    repair::optimize(g, inst, &start, Some(scope))
}

/// Races a from-scratch `greedy + local_search` candidate against the
/// repaired `forest`: a lighter candidate is polished by an unscoped
/// [`repair::optimize`] (which only shaves further) and adopted. Returns
/// the winner and `moves` plus the polish's moves.
fn race(
    g: &WeightedGraph,
    inst: &Instance,
    forest: ForestSolution,
    moves: u64,
    stats: &mut DeltaStats,
    race_ns: &mut u64,
) -> (ForestSolution, u64) {
    let t0 = Instant::now();
    stats.races += 1;
    let scratch = local_search::improve(g, inst, &greedy::solve_greedy(g, inst));
    let out = if scratch.weight(g) < forest.weight(g) {
        stats.race_wins += 1;
        let (polished, extra) = repair::optimize(g, inst, &scratch, None);
        (polished, moves + extra)
    } else {
        (forest, moves)
    };
    *race_ns += t0.elapsed().as_nanos() as u64;
    out
}

impl SolverSession {
    /// Installs the graph the incremental state lives on.
    ///
    /// Solution caching is keyed by [`WeightedGraph::fingerprint`]: when
    /// the installed graph fingerprints identically to the cached one,
    /// the call is a cache hit and the cached demands and forest survive
    /// untouched. Any other fingerprint — including the first install on
    /// a cold session — (re)builds fresh empty state, so later deltas
    /// can never repair against the wrong topology.
    ///
    /// Returns `true` when state was (re)built and `false` on a cache
    /// hit.
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use dsf_graph::{generators, NodeId};
    /// use dsf_service::SolverSession;
    ///
    /// let g = Arc::new(generators::gnp_connected(16, 0.3, 9, 1));
    /// let mut session = SolverSession::new();
    /// assert!(session.install_graph(g.clone()));
    ///
    /// let (_, out) = session.add_demand(&[NodeId(0), NodeId(9)]).unwrap();
    /// assert!(out.weight > 0);
    /// // Same fingerprint: cache hit, the solution survives.
    /// assert!(!session.install_graph(g.clone()));
    /// assert_eq!(session.cached_forest().unwrap(), &out.forest);
    /// ```
    pub fn install_graph(&mut self, graph: Arc<WeightedGraph>) -> bool {
        self.delta_stats.installs += 1;
        if let Some(state) = &self.incremental {
            if state.graph.fingerprint() == graph.fingerprint() {
                self.delta_stats.cache_hits += 1;
                return false;
            }
        }
        self.delta_stats.rebuilds += 1;
        let instance = build_instance(&graph, &[]).expect("empty instance is valid");
        self.incremental = Some(IncrementalState {
            graph,
            demands: Vec::new(),
            next_id: 0,
            instance,
            forest: ForestSolution::empty(),
        });
        true
    }

    /// Adds one demand component and repairs the cached forest: the new
    /// terminals are connected through a contracted-metric Dijkstra over
    /// the existing trees ([`repair::connect_terminals`] — riding cached
    /// edges is free), then finished to the deterministic local optimum.
    ///
    /// Returns a stable [`DemandId`] handle for later removal, plus the
    /// repair outcome.
    ///
    /// # Errors
    ///
    /// [`DeltaError::NoGraph`] before [`SolverSession::install_graph`];
    /// [`DeltaError::Instance`] when the terminals overlap an active
    /// demand, are empty, or exceed the node range.
    pub fn add_demand(
        &mut self,
        terminals: &[NodeId],
    ) -> Result<(DemandId, DeltaOutcome), DeltaError> {
        let t0 = Instant::now();
        let state = self.incremental.as_mut().ok_or(DeltaError::NoGraph)?;
        let id = DemandId(state.next_id);
        let mut demands = state.demands.clone();
        demands.push((id, terminals.to_vec()));
        // Validation happens in the instance build (overlap, range,
        // emptiness); state is untouched on error.
        let instance = build_instance(&state.graph, &demands)?;
        let connected = repair::connect_terminals(&state.graph, &state.forest, terminals);
        // The damage an add does is the new terminals plus the connection
        // path just bought; seeding the repair scope with both lets the
        // finishing pass react to the path (e.g. swap a detour it grazed)
        // without rescanning untouched trees.
        let mut scope = terminals.to_vec();
        for &e in connected.edges() {
            if !state.forest.contains(e) {
                let ed = &state.graph.edges()[e.idx()];
                scope.push(ed.u);
                scope.push(ed.v);
            }
        }
        let (mut forest, mut moves) = finish(&state.graph, &instance, connected, &scope);
        // An add leaves the graph metric untouched, so a connection
        // path that built its own tree cannot improve any other tree.
        // But a path that *merged* into existing trees entangles the
        // newcomer with older components, and the merged topology may
        // only be escapable by a restructuring no repair move reaches:
        // give the unscoped fixpoint one look (it starts at the scoped
        // pass's fixpoint, so when nothing global moves it costs one
        // empty sweep), then race the from-scratch candidate exactly as
        // [`SolverSession::remove_demand`] does for entangled
        // departures. A disentangled add bought a standalone tree and
        // disturbed nobody, so both passes are skipped and the attach
        // stays cheap.
        let tree_of = state.graph.components_of(forest.edges());
        let new_tree = terminals.first().map(|t| tree_of[t.idx()]);
        let entangled = state
            .demands
            .iter()
            .any(|(_, terms)| terms.iter().any(|t| Some(tree_of[t.idx()]) == new_tree));
        let stats = &mut self.delta_stats;
        let mut race_ns = 0;
        if entangled {
            let (global, extra) = repair::optimize(&state.graph, &instance, &forest, None);
            (forest, moves) = race(
                &state.graph,
                &instance,
                global,
                moves + extra,
                stats,
                &mut race_ns,
            );
        }
        // On a near-cold session there is little cached structure to
        // ride, so attaching onto it can lock in a worse topology than a
        // fresh greedy's interleaved merges — and a from-scratch solve
        // of a tiny instance is cheap. Race it while the instance is
        // small; once enough components are cached the attach rides real
        // structure and the incremental path wins on its own.
        if !entangled && instance.k() <= SMALL_INSTANCE_RACE_K {
            (forest, moves) = race(&state.graph, &instance, forest, moves, stats, &mut race_ns);
        }
        state.next_id += 1;
        state.demands = demands;
        state.instance = instance;
        let weight = forest.weight(&state.graph);
        state.forest = forest.clone();
        stats.deltas += 1;
        stats.moves += moves;
        Ok((
            id,
            DeltaOutcome {
                forest,
                weight,
                moves,
                wall_ns: t0.elapsed().as_nanos() as u64,
                race_ns,
            },
        ))
    }

    /// Removes one demand component and rolls the cached forest back:
    /// pruning against the shrunk instance drops every edge only the
    /// departed component needed (the union-find label pass of
    /// [`ForestSolution::prune_to_minimal`]), and the finishing pass then
    /// re-optimizes what remains — e.g. rerouting a survivor that was
    /// riding the departed component's tree for free. Because a
    /// departure can strand the survivors in a shape only a
    /// multi-component restructuring escapes, the patched forest is
    /// raced against a from-scratch `greedy + local_search` candidate
    /// and the lighter of the two wins — a removal therefore never
    /// yields a forest heavier than a fresh solve.
    ///
    /// Removing the last demand yields the empty forest.
    ///
    /// # Errors
    ///
    /// [`DeltaError::NoGraph`] before [`SolverSession::install_graph`];
    /// [`DeltaError::UnknownDemand`] for a handle that was never issued
    /// or was already removed.
    pub fn remove_demand(&mut self, id: DemandId) -> Result<DeltaOutcome, DeltaError> {
        let t0 = Instant::now();
        let state = self.incremental.as_mut().ok_or(DeltaError::NoGraph)?;
        let at = state
            .demands
            .iter()
            .position(|(d, _)| *d == id)
            .ok_or(DeltaError::UnknownDemand(id))?;
        let (_, removed_terms) = state.demands.remove(at);
        let instance =
            build_instance(&state.graph, &state.demands).expect("shrunk demand set stays valid");
        // Did the departed component share its tree with a survivor?
        // (All its terminals sat in one tree — the forest was feasible —
        // so checking any one of them suffices.)
        let tree_of = state.graph.components_of(state.forest.edges());
        let removed_tree = removed_terms.first().map(|t| tree_of[t.idx()]);
        let entangled = state
            .demands
            .iter()
            .any(|(_, terms)| terms.iter().any(|t| Some(tree_of[t.idx()]) == removed_tree));
        let rolled_back = state.forest.prune_to_minimal(&state.graph, &instance);
        // The rollback scar: the departed terminals plus both endpoints
        // of every edge the prune dropped. Survivors that were riding
        // those edges for free sit in the scarred trees, so seeding the
        // repair scope here reaches everything the removal disturbed.
        let mut scope = removed_terms;
        for &e in state.forest.edges() {
            if !rolled_back.contains(e) {
                let ed = &state.graph.edges()[e.idx()];
                scope.push(ed.u);
                scope.push(ed.v);
            }
        }
        let (mut forest, mut moves) = finish(&state.graph, &instance, rolled_back, &scope);
        // An *entangled* departure — the departed terminals shared a
        // tree with a survivor — can leave that survivor in a shape no
        // local move escapes: its detours were bought when the departed
        // tree was free to ride, and unwinding them can take a
        // multi-component restructuring. Race a from-scratch greedy +
        // local-search candidate; when it beats the patched forest,
        // polish it with an unscoped repair pass (which only shaves
        // further) and adopt it. A disentangled departure takes its
        // whole tree with it and disturbs nobody, so the race is
        // skipped and the removal stays cheap.
        let stats = &mut self.delta_stats;
        let mut race_ns = 0;
        if entangled {
            (forest, moves) = race(&state.graph, &instance, forest, moves, stats, &mut race_ns);
        }
        state.instance = instance;
        let weight = forest.weight(&state.graph);
        state.forest = forest.clone();
        stats.deltas += 1;
        stats.moves += moves;
        Ok(DeltaOutcome {
            forest,
            weight,
            moves,
            wall_ns: t0.elapsed().as_nanos() as u64,
            race_ns,
        })
    }

    /// Re-prices one edge and repairs the cached forest against the new
    /// metric. The session's graph is replaced by a re-priced copy
    /// ([`WeightedGraph::with_weight`]): only the edge list is copied, the
    /// adjacency is shared and nothing is rebuilt or hashed. Edge ids are
    /// stable, so the cached forest stays valid, and the cache key
    /// ([`SolverSession::cached_fingerprint`]) follows the new weights;
    /// the finishing pass then swaps away from an edge that got expensive
    /// or routes through one that got cheap.
    ///
    /// A reweight to the current weight is a no-op (no repair runs),
    /// and raising the price of an edge the forest does not use skips
    /// the search outright — no move can become profitable when every
    /// candidate only got more expensive.
    ///
    /// # Errors
    ///
    /// [`DeltaError::NoGraph`] before [`SolverSession::install_graph`];
    /// [`DeltaError::EdgeOutOfRange`] / [`DeltaError::ZeroWeight`] for an
    /// invalid target; [`DeltaError::WeightOverflow`] when the graph's
    /// total edge weight would reach [`dsf_graph::INF`] (weights up to
    /// that bound keep every path sum below Dijkstra's clamp). The
    /// session's graph, forest and demands are untouched on error.
    pub fn reweight_edge(&mut self, e: EdgeId, w: Weight) -> Result<DeltaOutcome, DeltaError> {
        let t0 = Instant::now();
        let state = self.incremental.as_mut().ok_or(DeltaError::NoGraph)?;
        if e.idx() >= state.graph.m() {
            return Err(DeltaError::EdgeOutOfRange(e));
        }
        if w == 0 {
            return Err(DeltaError::ZeroWeight(e));
        }
        if state.graph.weight(e) == w {
            self.delta_stats.deltas += 1;
            let weight = state.forest.weight(&state.graph);
            return Ok(DeltaOutcome {
                forest: state.forest.clone(),
                weight,
                moves: 0,
                wall_ns: t0.elapsed().as_nanos() as u64,
                race_ns: 0,
            });
        }
        let old_w = state.graph.weight(e);
        let went_up = w > old_w;
        // The range and zero checks above leave the weight bound as the
        // only way the re-priced copy can be refused.
        let graph = Arc::new(
            state
                .graph
                .with_weight(e, w)
                .map_err(|_| DeltaError::WeightOverflow(e, w))?,
        );
        let stats = &mut self.delta_stats;
        let mut race_ns = 0;
        let (forest, moves) = if went_up && !state.forest.contains(e) {
            // A chord that only got more expensive cannot enable any
            // move: every candidate's cost weakly increased while the
            // cached forest's weight is unchanged, so the fixpoint is
            // preserved without searching.
            (state.forest.clone(), 0)
        } else if !went_up && state.forest.contains(e) {
            // A forest edge that got cheaper pays for itself: in any
            // candidate trade the edge can only appear on the dropped
            // side, and dropping it now saves less — every move's
            // balance weakly worsened, so the fixpoint is preserved
            // without searching.
            (state.forest.clone(), 0)
        } else {
            // One Dijkstra finds the cheapest-alternative threshold:
            // the best `u`–`v` route avoiding the re-priced edge
            // itself. While the edge stays on its side of that
            // threshold the graph metric is unchanged up to ties —
            // contraction only shrinks distances, so the argument
            // survives the contracted metric the solvers search.
            let ed = &graph.edges()[e.idx()];
            let alt = dijkstra::multi_source_to(&graph, &[ed.u], &[ed.v], |x| {
                if x == e {
                    INF
                } else {
                    graph.weight(x)
                }
            })
            .dist[ed.v.idx()];
            if went_up {
                // The forest absorbs a price increase on an edge it
                // uses: a scoped finish sheds or keeps it. If the edge
                // was *dominant* — priced below its alternative, hence
                // on real shortest paths — the increase re-shapes the
                // metric, and absorbing it may take a multi-component
                // restructuring no scoped move finds: race the
                // from-scratch candidate exactly as
                // [`SolverSession::remove_demand`] does. An edge that
                // was already redundant re-shapes nothing; the scoped
                // finish alone sheds it.
                let (forest, moves) =
                    finish(&graph, &state.instance, state.forest.clone(), &[ed.u, ed.v]);
                if old_w < alt {
                    race(&graph, &state.instance, forest, moves, stats, &mut race_ns)
                } else {
                    (forest, moves)
                }
            } else if w < alt {
                // A chord dropping below every alternative improves
                // real distances, so it can pay off in trees far from
                // its endpoints (e.g. a component rerouting through
                // it): finish unscoped so every move family sees it,
                // and — because the metric genuinely changed — race
                // the from-scratch candidate, whose interleaved greedy
                // merges can reach topologies no repair move does.
                let (forest, moves) =
                    repair::optimize(&graph, &state.instance, &state.forest, None);
                race(&graph, &state.instance, forest, moves, stats, &mut race_ns)
            } else {
                // A redundant cheaper chord leaves the metric
                // unchanged; the only possibly-profitable new move is
                // the swap adding the chord itself, which needs both
                // endpoints in one tree.
                let tree_of = graph.components_of(state.forest.edges());
                if tree_of[ed.u.idx()] == tree_of[ed.v.idx()] {
                    finish(&graph, &state.instance, state.forest.clone(), &[ed.u, ed.v])
                } else {
                    (state.forest.clone(), 0)
                }
            }
        };
        let weight = forest.weight(&graph);
        state.graph = graph;
        state.forest = forest.clone();
        stats.deltas += 1;
        stats.moves += moves;
        Ok(DeltaOutcome {
            forest,
            weight,
            moves,
            wall_ns: t0.elapsed().as_nanos() as u64,
            race_ns,
        })
    }

    /// The cached repaired forest, if a graph is installed.
    pub fn cached_forest(&self) -> Option<&ForestSolution> {
        self.incremental.as_ref().map(|s| &s.forest)
    }

    /// The instance of the current demand set, if a graph is installed.
    pub fn cached_instance(&self) -> Option<&Instance> {
        self.incremental.as_ref().map(|s| &s.instance)
    }

    /// The graph the incremental state lives on (follows reweights —
    /// after [`SolverSession::reweight_edge`] this is the re-priced
    /// graph, not the one originally installed).
    pub fn cached_graph(&self) -> Option<&Arc<WeightedGraph>> {
        self.incremental.as_ref().map(|s| &s.graph)
    }

    /// The fingerprint the solution cache is keyed by: that of
    /// [`SolverSession::cached_graph`], computed on each call.
    pub fn cached_fingerprint(&self) -> Option<u64> {
        self.incremental.as_ref().map(|s| s.graph.fingerprint())
    }

    /// Handles of the active demands, in arrival order.
    pub fn active_demands(&self) -> Vec<DemandId> {
        self.incremental
            .as_ref()
            .map(|s| s.demands.iter().map(|(d, _)| *d).collect())
            .unwrap_or_default()
    }

    /// Counters of this session's incremental activity.
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;

    fn session_on(g: &Arc<WeightedGraph>) -> SolverSession {
        let mut s = SolverSession::new();
        assert!(s.install_graph(g.clone()));
        s
    }

    #[test]
    fn add_connects_and_remove_rolls_back_to_empty() {
        let g = Arc::new(generators::path(6, 2));
        let mut s = session_on(&g);
        let (id, out) = s.add_demand(&[NodeId(1), NodeId(4)]).unwrap();
        assert_eq!(out.weight, 6); // the 3 path edges between 1 and 4
        assert!(s.cached_instance().unwrap().is_feasible(&g, &out.forest));
        let out = s.remove_demand(id).unwrap();
        assert!(out.forest.is_empty());
        assert_eq!(out.weight, 0);
        assert_eq!(
            s.remove_demand(id).unwrap_err(),
            DeltaError::UnknownDemand(id)
        );
    }

    #[test]
    fn deltas_require_an_installed_graph() {
        let mut s = SolverSession::new();
        assert_eq!(
            s.add_demand(&[NodeId(0), NodeId(1)]).unwrap_err(),
            DeltaError::NoGraph
        );
        assert_eq!(
            s.remove_demand(DemandId(0)).unwrap_err(),
            DeltaError::NoGraph
        );
        assert_eq!(
            s.reweight_edge(EdgeId(0), 1).unwrap_err(),
            DeltaError::NoGraph
        );
    }

    #[test]
    fn add_demand_validates_without_corrupting_state() {
        let g = Arc::new(generators::gnp_connected(12, 0.3, 8, 2));
        let mut s = session_on(&g);
        let (_, before) = s.add_demand(&[NodeId(0), NodeId(7)]).unwrap();
        // Overlap with the active demand is rejected...
        assert!(matches!(
            s.add_demand(&[NodeId(7), NodeId(9)]).unwrap_err(),
            DeltaError::Instance(InstanceError::Relabeled(_))
        ));
        assert!(matches!(
            s.add_demand(&[]).unwrap_err(),
            DeltaError::Instance(InstanceError::EmptyComponent)
        ));
        assert!(matches!(
            s.add_demand(&[NodeId(99), NodeId(3)]).unwrap_err(),
            DeltaError::Instance(InstanceError::NodeOutOfRange(_))
        ));
        // ...and the cached state is exactly what the last success left.
        assert_eq!(s.cached_forest().unwrap(), &before.forest);
        assert_eq!(s.active_demands().len(), 1);
    }

    #[test]
    fn reweight_patches_the_metric_and_moves_the_forest() {
        // Square 0-1-2-3-0, demand {0,2}: starts on the cheap side, a
        // reweight flips which side is cheap.
        let mut b = dsf_graph::GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap(); // e0
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap(); // e1
        b.add_edge(NodeId(2), NodeId(3), 3).unwrap(); // e2
        b.add_edge(NodeId(3), NodeId(0), 3).unwrap(); // e3
        let g = Arc::new(b.build().unwrap());
        let mut s = session_on(&g);
        let (_, out) = s.add_demand(&[NodeId(0), NodeId(2)]).unwrap();
        assert_eq!(out.forest.edges(), &[EdgeId(0), EdgeId(1)]);
        let out = s.reweight_edge(EdgeId(0), 20).unwrap();
        assert_eq!(out.forest.edges(), &[EdgeId(2), EdgeId(3)]);
        assert_eq!(out.weight, 6);
        assert!(out.moves > 0);
        // The session's graph followed the reweight, cache key included.
        let cached = s.cached_graph().unwrap();
        assert_eq!(cached.weight(EdgeId(0)), 20);
        assert_eq!(s.cached_fingerprint(), Some(cached.fingerprint()));
        // Invalid targets are rejected.
        assert_eq!(
            s.reweight_edge(EdgeId(99), 1).unwrap_err(),
            DeltaError::EdgeOutOfRange(EdgeId(99))
        );
        assert_eq!(
            s.reweight_edge(EdgeId(0), 0).unwrap_err(),
            DeltaError::ZeroWeight(EdgeId(0))
        );
    }

    #[test]
    fn reweight_to_the_same_weight_is_a_no_op() {
        let g = Arc::new(generators::path(4, 5));
        let mut s = session_on(&g);
        let (_, before) = s.add_demand(&[NodeId(0), NodeId(3)]).unwrap();
        let out = s.reweight_edge(EdgeId(1), 5).unwrap();
        assert_eq!(out.forest, before.forest);
        assert_eq!(out.moves, 0);
        assert!(Arc::ptr_eq(s.cached_graph().unwrap(), &g));
    }

    #[test]
    fn reweight_refuses_a_total_weight_at_inf_and_leaves_state_untouched() {
        let g = Arc::new(generators::grid(3, 3, 5, 1));
        let mut s = session_on(&g);
        let (_, before) = s.add_demand(&[NodeId(0), NodeId(8)]).unwrap();
        let e = before.forest.edges()[0];
        let others: Weight = g.edges().iter().map(|x| x.w).sum::<Weight>() - g.weight(e);
        for w in [u64::MAX, INF - others] {
            assert_eq!(
                s.reweight_edge(e, w).unwrap_err(),
                DeltaError::WeightOverflow(e, w)
            );
            assert!(Arc::ptr_eq(s.cached_graph().unwrap(), &g));
            assert_eq!(s.cached_forest().unwrap(), &before.forest);
            assert_eq!(s.active_demands().len(), 1);
            assert_eq!(s.delta_stats().deltas, 1);
        }
        // Just below the bound the re-price goes through, and the repair
        // still returns a feasible forest at its true weight.
        let out = s.reweight_edge(e, INF - others - 1).unwrap();
        assert!(s
            .cached_instance()
            .unwrap()
            .is_feasible(s.cached_graph().unwrap(), &out.forest));
        assert_eq!(out.weight, out.forest.weight(s.cached_graph().unwrap()));
        assert!(out.weight < INF);
    }

    #[test]
    fn races_count_the_scratch_candidates() {
        let g = Arc::new(generators::grid(3, 3, 5, 1));
        let mut s = session_on(&g);
        // k = 1 is at most SMALL_INSTANCE_RACE_K: the first add races. A
        // single pair's attach is already a shortest path, which no
        // scratch candidate beats, so the race is lost.
        let (_, out) = s.add_demand(&[NodeId(0), NodeId(8)]).unwrap();
        assert_eq!(s.delta_stats().races, 1);
        assert_eq!(s.delta_stats().race_wins, 0);
        let e = out.forest.edges()[0];
        s.reweight_edge(e, g.weight(e)).unwrap();
        let chord = (0..g.m() as u32)
            .map(EdgeId)
            .find(|&x| !out.forest.contains(x))
            .unwrap();
        s.reweight_edge(chord, g.weight(chord) + 1).unwrap();
        let stats = s.delta_stats();
        assert_eq!((stats.deltas, stats.races), (3, 1));
        // On this graph the scratch candidate beats the third arrival's
        // repair: that race counts as a win.
        let g = Arc::new(generators::gnp_connected(10, 0.35, 9, 51));
        let mut s = session_on(&g);
        for (a, b) in [(5, 2), (1, 8)] {
            s.add_demand(&[NodeId(a), NodeId(b)]).unwrap();
        }
        let before = s.delta_stats();
        s.add_demand(&[NodeId(4), NodeId(0)]).unwrap();
        let after = s.delta_stats();
        assert_eq!(after.races, before.races + 1);
        assert_eq!(after.race_wins, before.race_wins + 1);
    }

    #[test]
    fn race_time_is_split_out_of_the_wall_clock() {
        let g = Arc::new(generators::grid(3, 3, 5, 1));
        let mut s = session_on(&g);
        // The first add on a fresh session races (k = 1 is small).
        let (_, out) = s.add_demand(&[NodeId(0), NodeId(8)]).unwrap();
        assert_eq!(s.delta_stats().races, 1);
        assert!(out.race_ns > 0, "the race was timed");
        assert!(out.race_ns <= out.wall_ns, "the race is part of the delta");
        // A no-op reweight runs no race.
        let e = out.forest.edges()[0];
        let noop = s.reweight_edge(e, g.weight(e)).unwrap();
        assert_eq!(noop.race_ns, 0);
        assert_eq!(s.delta_stats().races, 1);
    }

    #[test]
    fn install_is_keyed_by_fingerprint_not_identity() {
        let g = Arc::new(generators::gnp_connected(14, 0.3, 7, 4));
        let rebuilt = Arc::new(WeightedGraph::from_edges(g.n(), g.edges().to_vec()).unwrap());
        let mut s = session_on(&g);
        let (_, out) = s.add_demand(&[NodeId(2), NodeId(11)]).unwrap();
        // A different allocation of the same graph is still a cache hit.
        assert!(!s.install_graph(rebuilt));
        assert_eq!(s.cached_forest().unwrap(), &out.forest);
        let stats = s.delta_stats();
        assert_eq!(stats.installs, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.rebuilds, 1);
    }
}
