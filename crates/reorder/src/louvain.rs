//! Modularity-based community detection (Louvain method).
//!
//! The paper (§IV-C) partitions the index graph with the modularity-based
//! community detection of Blondel et al. \[34\]/\[35\]; modularity `Q` (paper's
//! definition, Newman \[36\]) measures how much denser intra-community edges
//! are than a random graph with the same degrees. Louvain alternates:
//!
//! 1. **local moving** — greedily move vertices to the neighboring
//!    community with the largest modularity gain until no move helps;
//! 2. **aggregation** — collapse communities into super-vertices and
//!    repeat on the condensed graph.
//!
//! The partition is a pure function of the graph. Both phases gather a
//! vertex's (or a community's) weight per neighboring community in one
//! dense `CommunityScratch` — a weight per community id, the ids in
//! first-touch (adjacency) order and a seen mask — allocated once per
//! fit, so no step allocates per vertex and no step iterates a hash map.
//! Local moving scores candidates in first-touch order and moves a vertex
//! only on a strict improvement, so of two candidates with equal gain the
//! earlier-touched one wins.

use crate::graph::IndexGraph;

/// Gains closer than this (in units of the modularity gain) are ties: a
/// vertex moves only when a candidate beats its best by more.
const GAIN_EPSILON: f64 = 1e-12;

/// A community assignment over graph vertices.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Community id of each vertex (ids are contiguous, `0..num_communities`).
    pub community: Vec<u32>,
    /// Number of communities.
    pub count: usize,
}

impl Partition {
    /// The trivial partition (every vertex its own community).
    pub fn singleton(n: usize) -> Self {
        Self { community: (0..n as u32).collect(), count: n }
    }

    /// Vertices of each community.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.count];
        for (v, &c) in self.community.iter().enumerate() {
            out[c as usize].push(v as u32);
        }
        out
    }

    /// Renumbers community ids to be contiguous, in order of first
    /// appearance.
    fn compact(mut self) -> Self {
        let bound = self.community.iter().max().map_or(0, |&c| c as usize + 1);
        let mut remap = vec![u32::MAX; bound];
        let mut count = 0u32;
        for c in &mut self.community {
            let slot = &mut remap[*c as usize];
            if *slot == u32::MAX {
                *slot = count;
                count += 1;
            }
            *c = *slot;
        }
        self.count = count as usize;
        self
    }
}

/// Newman modularity of a partition:
/// `Q = sum_c (e_c / m - (k_c / 2m)^2)` with `e_c` the intra-community
/// weight, `k_c` the community degree and `m` the total edge weight.
pub fn modularity(graph: &IndexGraph, partition: &Partition) -> f64 {
    let m = graph.total_weight();
    if m == 0.0 {
        return 0.0;
    }
    let mut intra = vec![0f64; partition.count];
    let mut degree = vec![0f64; partition.count];
    for v in 0..graph.num_vertices() {
        let cv = partition.community[v] as usize;
        degree[cv] += graph.degree(v);
        for (nb, w) in graph.neighbors(v) {
            if partition.community[nb as usize] as usize == cv {
                intra[cv] += w as f64; // counted twice, halved below
            }
        }
    }
    (0..partition.count).map(|c| intra[c] / (2.0 * m) - (degree[c] / (2.0 * m)).powi(2)).sum()
}

/// Weight per neighboring community, gathered densely: `weight` is indexed
/// by community id, `touched` lists the ids in first-touch order and
/// `seen` marks them. `clear` resets only the touched slots, so one
/// scratch serves every vertex of every level.
struct CommunityScratch {
    weight: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
}

impl CommunityScratch {
    /// A scratch for community ids below `n`.
    fn new(n: usize) -> Self {
        Self { weight: vec![0.0; n], seen: vec![false; n], touched: Vec::new() }
    }

    fn add(&mut self, c: u32, w: f64) {
        let i = c as usize;
        if !self.seen[i] {
            self.seen[i] = true;
            self.touched.push(c);
        }
        self.weight[i] += w;
    }

    /// Accumulated weight to community `c` (0 when untouched).
    fn weight(&self, c: u32) -> f64 {
        self.weight[c as usize]
    }

    fn clear(&mut self) {
        for &c in &self.touched {
            self.weight[c as usize] = 0.0;
            self.seen[c as usize] = false;
        }
        self.touched.clear();
    }
}

/// One level's working graph in CSR form: the index graph at level 0,
/// then the communities of the level below as super-vertices.
struct Level {
    offsets: Vec<usize>,
    edges: Vec<(u32, f64)>,
    self_loops: Vec<f64>,
}

impl Level {
    fn of_graph(graph: &IndexGraph) -> Self {
        Self {
            offsets: graph.offsets.iter().map(|&o| o as usize).collect(),
            edges: graph
                .neighbors
                .iter()
                .zip(&graph.weights)
                .map(|(&nb, &w)| (nb, w as f64))
                .collect(),
            self_loops: vec![0.0; graph.num_vertices()],
        }
    }

    fn len(&self) -> usize {
        self.self_loops.len()
    }

    fn neighbors(&self, v: usize) -> &[(u32, f64)] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Total edge weight `m`, self loops included.
    fn total_weight(&self) -> f64 {
        self.self_loops.iter().sum::<f64>() + self.edges.iter().map(|&(_, w)| w).sum::<f64>() / 2.0
    }
}

/// Runs Louvain community detection; returns a partition with contiguous
/// community ids.
pub fn louvain(graph: &IndexGraph) -> Partition {
    let n = graph.num_vertices();
    if n == 0 {
        return Partition { community: Vec::new(), count: 0 };
    }
    let mut total_m: f64 = graph.total_weight();
    if total_m == 0.0 {
        return Partition::singleton(n);
    }
    let mut level = Level::of_graph(graph);
    // membership of original vertices through all levels
    let mut assignment: Vec<u32> = (0..n as u32).collect();
    // every level's community ids are below its vertex count, at most n
    let mut scratch = CommunityScratch::new(n);

    for _level in 0..16 {
        let (local, improved) = local_moving(&level, total_m, &mut scratch);
        if !improved {
            break;
        }
        // Map original vertices through this level's assignment.
        for a in assignment.iter_mut() {
            *a = local.community[*a as usize];
        }
        level = aggregate(&level, &local, &mut scratch);
        if level.len() == 1 {
            break;
        }
        // Total weight is invariant under aggregation; recompute to absorb
        // floating error.
        total_m = level.total_weight();
    }

    Partition { community: assignment, count: 0 }.compact()
}

/// One round of greedy local moving. Returns the level-local partition and
/// whether any move improved modularity.
fn local_moving(level: &Level, m: f64, scratch: &mut CommunityScratch) -> (Partition, bool) {
    let n = level.len();
    let mut community: Vec<u32> = (0..n as u32).collect();
    // Community total degree (incl. self loops counted twice).
    let degree: Vec<f64> = (0..n)
        .map(|v| {
            level.neighbors(v).iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * level.self_loops[v]
        })
        .collect();
    let mut comm_degree = degree.clone();
    // The gain of joining community c is (w_{v->c} - k_v K_c / 2m) / m;
    // candidates are compared on the bracket, so the tie band scales by m.
    let tie = GAIN_EPSILON * m;

    let mut improved_any = false;
    for _sweep in 0..32 {
        let mut moved = 0usize;
        for v in 0..n {
            let cv = community[v];
            // Weights from v to each neighboring community.
            for &(nb, w) in level.neighbors(v) {
                scratch.add(community[nb as usize], w);
            }
            // Remove v from its community; rejoining it is the baseline.
            comm_degree[cv as usize] -= degree[v];
            let k_over_2m = degree[v] / (2.0 * m);
            let mut best_c = cv;
            let mut best_gain = scratch.weight(cv) - k_over_2m * comm_degree[cv as usize];
            for &c in &scratch.touched {
                if c == cv {
                    continue;
                }
                let gain = scratch.weight(c) - k_over_2m * comm_degree[c as usize];
                if gain > best_gain + tie {
                    best_gain = gain;
                    best_c = c;
                }
            }
            scratch.clear();
            comm_degree[best_c as usize] += degree[v];
            if best_c != cv {
                community[v] = best_c;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
        improved_any = true;
    }

    let p = Partition { community, count: 0 }.compact();
    (p, improved_any)
}

/// Collapses each community of `local` into one super-vertex: the weight
/// between two communities sums their members' edges, edges inside a
/// community become its self loop. Members are visited in vertex order,
/// so every sum adds its terms in the order of the level below.
fn aggregate(level: &Level, local: &Partition, scratch: &mut CommunityScratch) -> Level {
    // A stable sort keeps each community's members in vertex order; every
    // community id in 0..count has a member, so the runs come in id order.
    let mut members: Vec<u32> = (0..level.len() as u32).collect();
    members.sort_by_key(|&v| local.community[v as usize]);

    let mut offsets = Vec::with_capacity(local.count + 1);
    offsets.push(0);
    let mut edges = Vec::new();
    let mut self_loops = vec![0f64; local.count];
    for run in members.chunk_by(|&a, &b| local.community[a as usize] == local.community[b as usize])
    {
        let c = local.community[run[0] as usize];
        for &v in run {
            self_loops[c as usize] += level.self_loops[v as usize];
            for &(nb, w) in level.neighbors(v as usize) {
                let cn = local.community[nb as usize];
                if cn == c {
                    self_loops[c as usize] += w / 2.0; // both endpoints visit
                } else {
                    scratch.add(cn, w);
                }
            }
        }
        scratch.touched.sort_unstable();
        edges.extend(scratch.touched.iter().map(|&cn| (cn, scratch.weight(cn))));
        scratch.clear();
        offsets.push(edges.len());
    }
    Level { offsets, edges, self_loops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::IndexGraphBuilder;

    /// Two K4 cliques joined by one edge.
    fn two_cliques() -> IndexGraph {
        let mut b = IndexGraphBuilder::new(8, &[false; 8], 1);
        b.add_batch(&[0, 1, 2, 3]);
        b.add_batch(&[0, 1, 2, 3]);
        b.add_batch(&[4, 5, 6, 7]);
        b.add_batch(&[4, 5, 6, 7]);
        b.add_batch(&[3, 4]); // bridge
        b.build()
    }

    #[test]
    fn louvain_separates_two_cliques() {
        let g = two_cliques();
        let p = louvain(&g);
        assert_eq!(p.count, 2, "expected two communities, got {}", p.count);
        // vertices 0..4 (table indices 0..4) together, 4..8 together
        let c0 = p.community[0];
        for v in 0..4 {
            assert_eq!(p.community[v], c0);
        }
        let c1 = p.community[4];
        assert_ne!(c0, c1);
        for v in 4..8 {
            assert_eq!(p.community[v], c1);
        }
    }

    #[test]
    fn detected_partition_beats_singletons_and_whole() {
        let g = two_cliques();
        let detected = louvain(&g);
        let q_detected = modularity(&g, &detected);
        let q_singleton = modularity(&g, &Partition::singleton(8));
        let whole = Partition { community: vec![0; 8], count: 1 };
        let q_whole = modularity(&g, &whole);
        assert!(q_detected > q_singleton);
        assert!(q_detected > q_whole);
        assert!(q_detected > 0.3, "Q = {q_detected}");
    }

    #[test]
    fn modularity_of_whole_graph_is_zero() {
        let g = two_cliques();
        let whole = Partition { community: vec![0; 8], count: 1 };
        assert!(modularity(&g, &whole).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_is_handled() {
        let b = IndexGraphBuilder::new(4, &[false; 4], 1);
        let g = b.build();
        let p = louvain(&g);
        assert_eq!(p.count, 0);
        assert_eq!(modularity(&g, &p), 0.0);
    }

    #[test]
    fn edgeless_vertices_stay_singletons() {
        let mut b = IndexGraphBuilder::new(6, &[false; 6], 1);
        b.add_batch(&[0, 1]);
        b.add_batch(&[2]); // observed but isolated: becomes a vertex only
                           // if it co-occurs; singleton batches add nothing
        let g = b.build();
        let p = louvain(&g);
        assert!(p.count >= 1);
        // all vertices assigned
        assert_eq!(p.community.len(), g.num_vertices());
    }

    #[test]
    fn partition_members_cover_all_vertices() {
        let g = two_cliques();
        let p = louvain(&g);
        let members = p.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn three_communities_in_a_chain() {
        // three K4 cliques chained with single bridges
        let mut b = IndexGraphBuilder::new(12, &[false; 12], 1);
        for _ in 0..3 {
            b.add_batch(&[0, 1, 2, 3]);
            b.add_batch(&[4, 5, 6, 7]);
            b.add_batch(&[8, 9, 10, 11]);
        }
        b.add_batch(&[3, 4]);
        b.add_batch(&[7, 8]);
        let g = b.build();
        let p = louvain(&g);
        assert_eq!(p.count, 3);
    }
}
