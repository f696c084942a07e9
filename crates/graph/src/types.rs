//! Directed graphs in compressed sparse row (CSR) form.
//!
//! CSR keeps the multi-million-node synthetic graphs of the paper's
//! Tables 1–2 compact: one `u64` offset per node plus one `u32` target
//! (and optional `f32` weight) per edge.

/// A directed graph, optionally edge-weighted.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
    weights: Option<Vec<f32>>,
}

impl Graph {
    /// Builds a graph from per-node adjacency lists.
    pub fn from_adjacency(adj: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for list in &adj {
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u64);
        }
        Graph {
            offsets,
            targets,
            weights: None,
        }
    }

    /// Builds a weighted graph from per-node `(target, weight)` lists.
    pub fn from_weighted_adjacency(adj: Vec<Vec<(u32, f32)>>) -> Self {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0);
        for list in &adj {
            for &(t, w) in list {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len() as u64);
        }
        Graph {
            offsets,
            targets,
            weights: Some(weights),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Whether edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: u32) -> usize {
        let n = node as usize;
        (self.offsets[n + 1] - self.offsets[n]) as usize
    }

    /// Outgoing targets of `node`.
    pub fn neighbors(&self, node: u32) -> &[u32] {
        let n = node as usize;
        &self.targets[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }

    /// Outgoing `(target, weight)` pairs of `node`; panics on an
    /// unweighted graph.
    pub fn weighted_neighbors(&self, node: u32) -> impl Iterator<Item = (u32, f32)> + '_ {
        let n = node as usize;
        let range = self.offsets[n] as usize..self.offsets[n + 1] as usize;
        let weights = self
            .weights
            .as_ref()
            .expect("weighted_neighbors on an unweighted graph");
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(weights[range].iter().copied())
    }

    /// The static-data records fed to the engines for an *unweighted*
    /// graph: `(node, out-neighbor list)`.
    pub fn adjacency_records(&self) -> Vec<(u32, Vec<u32>)> {
        (0..self.num_nodes() as u32)
            .map(|u| (u, self.neighbors(u).to_vec()))
            .collect()
    }

    /// The static-data records for a *weighted* graph:
    /// `(node, [(target, weight)])`.
    pub fn weighted_records(&self) -> Vec<(u32, Vec<(u32, f32)>)> {
        (0..self.num_nodes() as u32)
            .map(|u| (u, self.weighted_neighbors(u).collect()))
            .collect()
    }

    /// Estimated on-disk size in bytes when encoded with the record
    /// codecs (what the paper's "file size" columns report): node ids
    /// are IntWritable-style fixed 4 bytes, list lengths are varints,
    /// weights are 4-byte floats.
    pub fn encoded_size(&self) -> u64 {
        use imr_records_codec_len as len;
        let per_edge: u64 = if self.is_weighted() { 8 } else { 4 };
        let mut total = self.num_edges() as u64 * per_edge;
        for u in 0..self.num_nodes() as u32 {
            total += 4; // node id key
            total += len::varint_len(self.out_degree(u) as u64);
        }
        total
    }
}

/// Minimal varint length helper mirroring `imr-records`' encoding, kept
/// here so size estimation does not need to materialize the records.
mod imr_records_codec_len {
    pub fn varint_len(v: u64) -> u64 {
        if v == 0 {
            1
        } else {
            (64 - v.leading_zeros() as u64).div_ceil(7)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3 ; 3 -> (none)
        Graph::from_adjacency(vec![vec![1, 2], vec![3], vec![3], vec![]])
    }

    #[test]
    fn csr_shape() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(!g.is_weighted());
    }

    #[test]
    fn weighted_round_trip() {
        let adj = vec![vec![(1u32, 2.5f32)], vec![(0, 1.0), (1, 0.5)]];
        let g = Graph::from_weighted_adjacency(adj.clone());
        assert!(g.is_weighted());
        assert_eq!(g.num_edges(), 3);
        let back: Vec<Vec<(u32, f32)>> =
            (0..2).map(|u| g.weighted_neighbors(u).collect()).collect();
        assert_eq!(back, adj);
        let records = g.weighted_records();
        assert_eq!(records[1].1, vec![(0, 1.0), (1, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn weighted_access_on_unweighted_panics() {
        let g = diamond();
        let _ = g.weighted_neighbors(0).count();
    }

    #[test]
    fn adjacency_records_cover_all_nodes() {
        let g = diamond();
        let recs = g.adjacency_records();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[3], (3, vec![]));
    }

    #[test]
    fn encoded_size_matches_real_encoding() {
        use imr_records::encode_pairs;
        let g = diamond();
        let real = encode_pairs(&g.adjacency_records()).len() as u64;
        assert_eq!(g.encoded_size(), real);

        let w = Graph::from_weighted_adjacency(vec![vec![(1, 1.0)], vec![]]);
        let real_w = encode_pairs(&w.weighted_records()).len() as u64;
        assert_eq!(w.encoded_size(), real_w);
    }
}
