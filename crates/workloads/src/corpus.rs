//! The seeded, enumerable conformance corpus.
//!
//! A corpus is the cross product of **graph families** (every generator in
//! [`dsf_graph::generators`], including the adversarial families added for
//! this lab) with **demand patterns**:
//!
//! | pattern | shape | stresses |
//! |---|---|---|
//! | `matched_clusters` | components drawn from contiguous node blocks | dense local demand (Gupta–Traub-style clusters) |
//! | `long_range` | pairs `{i, n-1-i}` across the id range | long augmenting structures through the whole graph |
//! | `overlapping_groups` | chained connection requests sharing endpoints | the Lemma 2.3 CR→IC transitive merge |
//! | `singleton_spam` | real pairs drowned in singleton components | the Lemma 2.4 minimalization path |
//!
//! Every entry is deterministic per `(family, pattern, seed)` and carries a
//! [`Certificate`] so ratio checks never depend on re-deriving ground truth.

use dsf_graph::{generators, NodeId, WeightedGraph};
use dsf_steiner::{ConnectionRequests, Instance, InstanceBuilder};

use crate::certificate::{certify, Certificate};

/// Corpus size tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// CI-sized: small graphs, one seed per combination (~32 entries).
    Quick,
    /// Larger graphs and extra seeds for the full conformance sweep.
    Full,
}

/// One corpus instance: graph, demand, and ground-truth certificate.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable id, e.g. `gnp/matched_clusters/seed=0`.
    pub id: String,
    /// Graph family name.
    pub family: &'static str,
    /// Demand pattern name.
    pub pattern: &'static str,
    /// The network.
    pub graph: WeightedGraph,
    /// The (minimal) demand instance.
    pub instance: Instance,
    /// Ground truth for ratio assertions.
    pub certificate: Certificate,
}

/// All graph family names, in corpus order.
pub const FAMILIES: [&str; 9] = [
    "gnp",
    "grid",
    "geometric",
    "caterpillar",
    "tree_noise",
    "barbell",
    "clustered",
    "heavy_tailed",
    "power_law",
];

/// All demand pattern names, in corpus order.
pub const PATTERNS: [&str; 4] = [
    "matched_clusters",
    "long_range",
    "overlapping_groups",
    "singleton_spam",
];

pub(crate) fn make_graph(family: &str, tier: Tier, seed: u64) -> WeightedGraph {
    let quick = tier == Tier::Quick;
    match family {
        "gnp" => {
            let n = if quick { 20 } else { 48 };
            generators::gnp_connected(n, 0.2, 12, seed)
        }
        "grid" => {
            let (r, c) = if quick { (4, 5) } else { (6, 9) };
            generators::grid(r, c, 8, seed)
        }
        "geometric" => {
            let n = if quick { 20 } else { 44 };
            generators::random_geometric(n, if quick { 0.35 } else { 0.25 }, seed)
        }
        "caterpillar" => {
            let spine = if quick { 8 } else { 18 };
            generators::caterpillar(spine, 1, 6, seed)
        }
        "tree_noise" => {
            let n = if quick { 22 } else { 50 };
            generators::tree_with_noise(n, n / 4, 10, seed)
        }
        "barbell" => {
            let (clique, bridge) = if quick { (7, 4) } else { (12, 10) };
            generators::barbell(clique, bridge, 9, seed)
        }
        "clustered" => {
            let (k, per) = if quick { (3, 7) } else { (5, 9) };
            generators::clustered_geometric(k, per, seed)
        }
        "heavy_tailed" => {
            let n = if quick { 20 } else { 44 };
            generators::heavy_tailed(n, 0.15, 2.0, 100_000, seed)
        }
        "power_law" => {
            // RMAT/Kronecker skewed-degree topology — the corpus-sized
            // cousin of the `--scale-xl` bench tier's 10M-node instances.
            let n = if quick { 28 } else { 56 };
            generators::rmat(n, 3, 12, seed)
        }
        other => panic!("unknown graph family {other:?}"),
    }
}

/// `count` disjoint components of `size` terminals each, every component
/// sampled from its own contiguous block of node ids (dense local demand).
fn matched_clusters(g: &WeightedGraph, count: usize, size: usize, seed: u64) -> Instance {
    let n = g.n();
    assert!(count * size <= n, "clusters do not fit");
    let block = n / count;
    let mut b = InstanceBuilder::new(g);
    for c in 0..count {
        let picked = generators::sample_nodes(block, size, seed + c as u64);
        let terms: Vec<NodeId> = picked
            .into_iter()
            .map(|v| NodeId::from(c * block + v.idx()))
            .collect();
        b = b.component(&terms);
    }
    b.build().expect("blocks are disjoint")
}

/// `count` antipodal-by-id pairs `{i, n-1-i}`.
fn long_range(g: &WeightedGraph, count: usize) -> Instance {
    let n = g.n();
    assert!(2 * count < n, "pairs would collide");
    let mut b = InstanceBuilder::new(g);
    for i in 0..count {
        b = b.component(&[NodeId::from(i), NodeId::from(n - 1 - i)]);
    }
    b.build().expect("antipodal pairs are disjoint")
}

/// Chained connection requests sharing endpoints: `(a,b),(b,c),(c,d)` plus
/// one separate pair — exercises the CR→IC transitive closure.
fn overlapping_groups(g: &WeightedGraph, seed: u64) -> Instance {
    let picked = generators::sample_nodes(g.n(), 6, seed);
    let mut cr = ConnectionRequests::new(g.n());
    cr.request(picked[0], picked[1]);
    cr.request(picked[1], picked[2]);
    cr.request(picked[2], picked[3]);
    cr.request(picked[4], picked[5]);
    cr.to_components(g)
}

/// Two genuine pairs drowned in singleton components; the corpus stores
/// the minimalized instance (Lemma 2.4) the solvers actually receive.
fn singleton_spam(g: &WeightedGraph, seed: u64) -> Instance {
    let picked = generators::sample_nodes(g.n(), 10, seed);
    let mut b = InstanceBuilder::new(g);
    b = b.component(&[picked[0], picked[1]]);
    b = b.component(&[picked[2], picked[3]]);
    for &s in &picked[4..] {
        b = b.component(&[s]);
    }
    let spam = b.build().expect("sampled nodes are distinct");
    assert!(!spam.is_minimal());
    let minimal = spam.make_minimal();
    assert_eq!(minimal.k(), 2, "minimalization must drop all singletons");
    minimal
}

fn make_instance(pattern: &str, g: &WeightedGraph, tier: Tier, seed: u64) -> Instance {
    match pattern {
        // Quick keeps one combination above the exact-certificate cutoff
        // (k=4, t=12) so the sandwich path is exercised in CI too.
        "matched_clusters" => match tier {
            Tier::Quick => matched_clusters(g, 4, 3, seed),
            Tier::Full => matched_clusters(g, 5, 3, seed),
        },
        "long_range" => long_range(g, 3),
        "overlapping_groups" => overlapping_groups(g, seed),
        "singleton_spam" => singleton_spam(g, seed),
        other => panic!("unknown demand pattern {other:?}"),
    }
}

/// Seeds per `(family, pattern)` combination.
fn seeds(tier: Tier) -> std::ops::Range<u64> {
    match tier {
        Tier::Quick => 0..1,
        Tier::Full => 0..3,
    }
}

/// Materializes one corpus entry.
fn make_entry(family: &'static str, pattern: &'static str, tier: Tier, seed: u64) -> CorpusEntry {
    let graph = make_graph(family, tier, seed);
    let instance = make_instance(pattern, &graph, tier, seed);
    let certificate = certify(&graph, &instance);
    CorpusEntry {
        id: format!("{family}/{pattern}/seed={seed}"),
        family,
        pattern,
        graph,
        instance,
        certificate,
    }
}

/// Lazily enumerates the corpus for `tier`: `FAMILIES × PATTERNS × seeds`
/// in the same stable order as [`corpus`], generating (and certifying)
/// each entry only when the consumer pulls it.
///
/// This is the streaming front door for batch consumers such as the
/// corpus replay through the solve server: entries are generated on
/// demand, so memory stays bounded by the jobs in flight rather than the
/// corpus size.
pub fn stream(tier: Tier) -> impl Iterator<Item = CorpusEntry> {
    FAMILIES.into_iter().flat_map(move |family| {
        PATTERNS.into_iter().flat_map(move |pattern| {
            seeds(tier).map(move |seed| make_entry(family, pattern, tier, seed))
        })
    })
}

/// Enumerates the corpus for `tier`: `FAMILIES × PATTERNS × seeds`,
/// deterministically and in a stable order ([`stream`], materialized).
pub fn corpus(tier: Tier) -> Vec<CorpusEntry> {
    stream(tier).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::CertificateKind;

    #[test]
    fn quick_corpus_is_deterministic_and_covers_the_matrix() {
        let a = corpus(Tier::Quick);
        let b = corpus(Tier::Quick);
        assert_eq!(a.len(), FAMILIES.len() * PATTERNS.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.instance, y.instance);
            assert_eq!(x.graph.edges(), y.graph.edges());
            assert_eq!(x.certificate, y.certificate);
        }
        // Ids are unique.
        let mut ids: Vec<&str> = a.iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len());
    }

    #[test]
    fn stream_yields_the_corpus_in_order_and_lazily() {
        let streamed: Vec<String> = stream(Tier::Quick).map(|e| e.id).collect();
        let materialized: Vec<String> = corpus(Tier::Quick).into_iter().map(|e| e.id).collect();
        assert_eq!(streamed, materialized);
        // Pulling a prefix does not require generating the rest.
        let first = stream(Tier::Quick).next().expect("corpus is nonempty");
        assert_eq!(first.id, materialized[0]);
    }

    #[test]
    fn instances_are_minimal_and_certified() {
        let mut kinds = (0, 0);
        for e in corpus(Tier::Quick) {
            assert!(e.instance.is_minimal(), "{}", e.id);
            assert!(e.instance.k() >= 2, "{}", e.id);
            assert!(
                e.certificate.lower <= e.certificate.upper as f64 + 1e-9,
                "{}",
                e.id
            );
            match e.certificate.kind {
                CertificateKind::Exact => kinds.0 += 1,
                CertificateKind::Sandwich => kinds.1 += 1,
            }
        }
        // Both certificate paths must be represented in CI.
        assert!(kinds.0 > 0, "no exact certificates in quick tier");
        assert!(kinds.1 > 0, "no sandwich certificates in quick tier");
    }
}
