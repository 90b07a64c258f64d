//! Compressed sparse row adjacency.
//!
//! [`Csr`] stores one direction of adjacency (out-edges when built from an
//! edge list directly, in-edges when built from its transpose). [`DiGraph`]
//! bundles both directions plus the degree arrays every PageRank variant
//! needs: push/scatter engines walk out-edges, pull/gather engines walk
//! in-edges but divide by *out*-degree. The in-edge direction is built on
//! first use, so a graph that only push engines read never pays for it.

use crate::{EdgeList, VertexId};
use std::sync::OnceLock;

/// Compressed sparse row adjacency structure.
///
/// `offsets` has `num_vertices + 1` entries; the neighbours of vertex `v`
/// are `targets[offsets[v] .. offsets[v + 1]]`, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR from unsorted `(src, dst)` pairs using counting sort —
    /// O(V + E), no comparison sort of the edge array.
    pub fn from_edges(num_vertices: usize, edges: &[crate::Edge]) -> Self {
        let mut offsets = vec![0u64; num_vertices + 1];
        for e in edges {
            offsets[e.src as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut cursor = offsets.clone();
        for e in edges {
            let c = &mut cursor[e.src as usize];
            targets[*c as usize] = e.dst;
            *c += 1;
        }
        // Sort each adjacency run so neighbour order is canonical.
        for v in 0..num_vertices {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[lo..hi].sort_unstable();
        }
        Csr { offsets, targets }
    }

    /// Builds from an [`EdgeList`].
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::from_edges(el.num_vertices(), el.edges())
    }

    /// This CSR with `edges` (`(src, dst)` pairs, any order, repeats
    /// allowed) added: one O(V + E) copy that merges each new target into
    /// its sorted adjacency run. Equals [`Self::from_edges`] of this CSR's
    /// edges followed by `edges`.
    ///
    /// Panics if an endpoint is not below [`Self::num_vertices`].
    pub fn with_edges_added(&self, edges: &[(VertexId, VertexId)]) -> Csr {
        let n = self.num_vertices();
        let mut added = edges.to_vec();
        added.sort_unstable();
        if let Some(&(s, d)) = added.iter().find(|&&(s, d)| s as usize >= n || d as usize >= n) {
            panic!("edge ({s}, {d}) out of range: graph has {n} vertices");
        }
        let mut targets = Vec::with_capacity(self.targets.len() + added.len());
        // `self.targets[..copied]` is already in `targets`.
        let mut copied = 0;
        for run in added.chunk_by(|a, b| a.0 == b.0) {
            let v = run[0].0 as usize;
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            targets.extend_from_slice(&self.targets[copied..lo]);
            let old = &self.targets[lo..hi];
            let mut i = 0;
            for &(_, d) in run {
                let j = i + old[i..].partition_point(|&t| t <= d);
                targets.extend_from_slice(&old[i..j]);
                targets.push(d);
                i = j;
            }
            targets.extend_from_slice(&old[i..]);
            copied = hi;
        }
        targets.extend_from_slice(&self.targets[copied..]);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let (mut shift, mut k) = (0u64, 0);
        for v in 0..n {
            while k < added.len() && added[k].0 as usize == v {
                shift += 1;
                k += 1;
            }
            offsets.push(self.offsets[v + 1] + shift);
        }
        Csr { offsets, targets }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `v` in the stored direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Neighbours of `v` in the stored direction, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Index into [`Self::targets_raw`] where `v`'s adjacency run begins.
    #[inline]
    pub fn offset(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// The raw offsets array (`num_vertices + 1` entries).
    #[inline]
    pub fn offsets_raw(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw concatenated targets array.
    #[inline]
    pub fn targets_raw(&self) -> &[VertexId] {
        &self.targets
    }

    /// Returns the transpose (edge direction reversed).
    pub fn transposed(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets = vec![0u64; n + 1];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0 as VertexId; self.targets.len()];
        let mut cursor = offsets.clone();
        for v in 0..n {
            // Source vertices visited ascending, so each adjacency run in the
            // transpose is filled in ascending order — already sorted.
            for &t in self.neighbors(v as VertexId) {
                let c = &mut cursor[t as usize];
                targets[*c as usize] = v as VertexId;
                *c += 1;
            }
        }
        Csr { offsets, targets }
    }

    /// Iterates all edges `(src, dst)` in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.neighbors(v as VertexId).iter().map(move |&t| (v as VertexId, t))
        })
    }
}

/// A directed graph holding both adjacency directions and degree arrays.
///
/// * `out` — out-edge CSR (scatter/push traversal);
/// * `in_` — in-edge CSR (gather/pull traversal), the transpose of `out`,
///   built by the first [`Self::in_csr`] or [`Self::in_degree`] call;
/// * `out_degree[v]` — what PageRank divides `v`'s rank by.
#[derive(Debug, Clone)]
pub struct DiGraph {
    out: Csr,
    in_: OnceLock<Csr>,
    out_degree: Vec<u32>,
}

impl DiGraph {
    /// Builds the out-CSR and degrees from an edge list.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let out = Csr::from_edge_list(el);
        Self::from_out_csr(out)
    }

    /// Builds from an out-CSR, deriving the degrees. The transpose waits
    /// for its first reader.
    pub fn from_out_csr(out: Csr) -> Self {
        let out_degree = (0..out.num_vertices()).map(|v| out.degree(v as VertexId)).collect();
        DiGraph { out, in_: OnceLock::new(), out_degree }
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Out-edge CSR.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// In-edge CSR: the transpose of [`Self::out_csr`], built on the first
    /// call (by whichever thread gets there first) and shared afterwards.
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        self.in_.get_or_init(|| self.out.transposed())
    }

    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_degree[v as usize]
    }

    #[inline]
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degree
    }

    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.in_csr().degree(v)
    }

    /// Vertices with no outgoing edges (PageRank "dangling" vertices).
    pub fn dangling_vertices(&self) -> Vec<VertexId> {
        (0..self.num_vertices() as u32).filter(|&v| self.out_degree[v as usize] == 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn diamond() -> EdgeList {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        EdgeList::from_pairs([(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_basic_structure() {
        let csr = Csr::from_edge_list(&diamond());
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[3]);
        assert_eq!(csr.neighbors(3), &[] as &[u32]);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(3), 0);
    }

    #[test]
    fn csr_sorts_adjacency_runs() {
        let el = EdgeList::from_pairs([(0, 3), (0, 1), (0, 2)]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn transpose_is_involution() {
        let csr = Csr::from_edge_list(&diamond());
        assert_eq!(csr.transposed().transposed(), csr);
    }

    #[test]
    fn transpose_reverses_edges() {
        let csr = Csr::from_edge_list(&diamond());
        let t = csr.transposed();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
    }

    #[test]
    fn iter_edges_yields_all_in_order() {
        let csr = Csr::from_edge_list(&diamond());
        let edges: Vec<_> = csr.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn digraph_degrees_and_dangling() {
        let g = DiGraph::from_edge_list(&diamond());
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.dangling_vertices(), vec![3]);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edge_list(&EdgeList::new(0, vec![]));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices_preserved() {
        let g = DiGraph::from_edge_list(&EdgeList::new(10, vec![crate::Edge::new(0, 1)]));
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.dangling_vertices().len(), 9);
    }
}
