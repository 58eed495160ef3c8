//! Structural graph analysis: connectivity, BFS, diameter estimation and
//! degree statistics.
//!
//! The paper explains the road network's higher relaxation overhead by its
//! *diameter* (6261 for the USA road network versus 16 for LiveJournal and
//! 6 for the random graph) — [`hop_diameter_estimate`] measures the same
//! quantity for our generated graphs so the experiments can set them side
//! by side with the paper's.

use crate::csr::CsrGraph;
use crate::{Weight, INF};
use std::collections::VecDeque;

/// Hop distances from `src` by breadth-first search; unreachable vertices
/// get `usize::MAX`.
pub fn bfs_levels(g: &CsrGraph, src: usize) -> Vec<usize> {
    let n = g.num_vertices();
    let mut level = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    level[src] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for (t, _) in g.neighbors(v) {
            if level[t] == usize::MAX {
                level[t] = level[v] + 1;
                queue.push_back(t);
            }
        }
    }
    level
}

/// Number of weakly connected components (treating edges as undirected).
pub fn num_components(g: &CsrGraph) -> usize {
    let n = g.num_vertices();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for (u, v, _) in g.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru] = rv;
        }
    }
    (0..n).filter(|&v| find(&mut parent, v) == v).count()
}

/// Vertices reachable from `src` (following edge directions).
pub fn num_reachable(g: &CsrGraph, src: usize) -> usize {
    bfs_levels(g, src)
        .iter()
        .filter(|&&l| l != usize::MAX)
        .count()
}

/// Lower-bound estimate of the hop diameter by repeated double sweeps:
/// BFS from a start vertex, then BFS again from the farthest vertex found,
/// `sweeps` times from rotating start points. Exact on trees; a good lower
/// bound in general and standard practice for large graphs.
pub fn hop_diameter_estimate(g: &CsrGraph, sweeps: usize) -> usize {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut best = 0usize;
    let mut start = 0usize;
    for i in 0..sweeps.max(1) {
        let levels = bfs_levels(g, start);
        let (far, ecc) = levels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l != usize::MAX)
            .max_by_key(|(_, &l)| l)
            .map(|(v, &l)| (v, l))
            .unwrap_or((start, 0));
        best = best.max(ecc);
        let levels2 = bfs_levels(g, far);
        let ecc2 = levels2
            .iter()
            .filter(|&&l| l != usize::MAX)
            .max()
            .copied()
            .unwrap_or(0);
        best = best.max(ecc2);
        // Rotate the start vertex deterministically for the next sweep.
        start = (start + n / (i + 2) + 1) % n;
    }
    best
}

/// The ratio `d_max / w_min` from the paper's Theorem 6.1, computed with an
/// exact Dijkstra from `src` over the vertices reachable from `src`.
/// Returns `None` if no edges leave `src`'s component or the graph has no
/// edges.
pub fn dmax_over_wmin(g: &CsrGraph, src: usize) -> Option<f64> {
    let wmin = g.min_weight()?;
    let dist = crate::sssp::dijkstra(g, src).dist;
    let dmax = dist.iter().copied().filter(|&d| d != INF).max()?;
    Some(dmax as f64 / wmin as f64)
}

/// Summary degree statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
}

/// Compute [`DegreeStats`] over out-degrees.
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
        };
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    for v in 0..n {
        let d = g.out_degree(v);
        min = min.min(d);
        max = max.max(d);
    }
    DegreeStats {
        min,
        max,
        mean: g.num_edges() as f64 / n as f64,
    }
}

/// Weight statistics: `(w_min, w_max, coefficient of variation)`.
pub fn weight_stats(g: &CsrGraph) -> Option<(Weight, Weight, f64)> {
    if g.num_edges() == 0 {
        return None;
    }
    let mut sum = 0f64;
    let mut sum2 = 0f64;
    let mut wmin = Weight::MAX;
    let mut wmax = 0;
    let m = g.num_edges() as f64;
    for (_, _, w) in g.edges() {
        sum += w as f64;
        sum2 += (w as f64) * (w as f64);
        wmin = wmin.min(w);
        wmax = wmax.max(w);
    }
    let mean = sum / m;
    let var = (sum2 / m - mean * mean).max(0.0);
    Some((wmin, wmax, var.sqrt() / mean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::GraphBuilder;

    #[test]
    fn bfs_levels_on_path() {
        let g = gen::path_graph(5, 7);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3, 4]);
        // Directed: nothing reaches back to 0.
        assert_eq!(
            bfs_levels(&g, 4),
            vec![usize::MAX; 4]
                .into_iter()
                .chain([0])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn components_counting() {
        let mut b = GraphBuilder::new(6);
        b.add_undirected_edge(0, 1, 1);
        b.add_undirected_edge(2, 3, 1);
        let g = b.build();
        assert_eq!(num_components(&g), 4); // {0,1}, {2,3}, {4}, {5}
    }

    #[test]
    fn diameter_exact_on_path() {
        let mut b = GraphBuilder::new(10);
        for v in 0..9 {
            b.add_undirected_edge(v, v + 1, 1);
        }
        let g = b.build();
        assert_eq!(hop_diameter_estimate(&g, 2), 9);
    }

    #[test]
    fn dmax_over_wmin_on_path() {
        let g = gen::path_graph(11, 5);
        // d_max = 50, w_min = 5.
        assert_eq!(dmax_over_wmin(&g, 0), Some(10.0));
    }

    #[test]
    fn degree_and_weight_stats() {
        let g = gen::star_graph(5, 3);
        let d = degree_stats(&g);
        assert_eq!(d.max, 4);
        assert_eq!(d.min, 1);
        let (wmin, wmax, cv) = weight_stats(&g).unwrap();
        assert_eq!((wmin, wmax), (3, 3));
        assert!(cv.abs() < 1e-9);
    }

    #[test]
    fn reachability_directed() {
        let g = gen::path_graph(4, 1);
        assert_eq!(num_reachable(&g, 0), 4);
        assert_eq!(num_reachable(&g, 2), 2);
    }
}
