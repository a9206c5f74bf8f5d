//! The benchmark's own model of the logical graph under mutation.
//!
//! The model is built from the generated base graph and the mutation log
//! the benchmark applied, independently of the store's overlay, so the
//! oracle check runs on a CSR the store did not produce.

use std::collections::HashMap;

use pbfs_core::prelude::EdgeMutation;
use pbfs_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::Rng;

/// Share of a mutation batch that inserts edges; the rest deletes.
pub const INSERT_SHARE: f64 = 0.8;

/// Base graph plus the sorted neighbor lists of every vertex a mutation
/// touched.
pub struct Model<'g> {
    base: &'g CsrGraph,
    touched: HashMap<VertexId, Vec<VertexId>>,
}

impl<'g> Model<'g> {
    pub fn new(base: &'g CsrGraph) -> Self {
        Self {
            base,
            touched: HashMap::new(),
        }
    }

    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.touched.get(&v) {
            Some(list) => list,
            None => self.base.neighbors(v),
        }
    }

    fn list_mut(&mut self, v: VertexId) -> &mut Vec<VertexId> {
        let base = self.base;
        self.touched
            .entry(v)
            .or_insert_with(|| base.neighbors(v).to_vec())
    }

    fn set_half(&mut self, u: VertexId, v: VertexId, present: bool) {
        let list = self.list_mut(u);
        match (list.binary_search(&v), present) {
            (Err(at), true) => list.insert(at, v),
            (Ok(at), false) => {
                list.remove(at);
            }
            _ => {}
        }
    }

    /// Applies one batch with the store's semantics: an insert of a
    /// present edge and a delete of an absent one are no-ops.
    pub fn apply(&mut self, batch: &[EdgeMutation]) {
        for &m in batch {
            let (u, v, present) = match m {
                EdgeMutation::Insert(u, v) => (u, v, true),
                EdgeMutation::Delete(u, v) => (u, v, false),
            };
            self.set_half(u, v, present);
            self.set_half(v, u, present);
        }
    }

    /// A fresh CSR of the current logical graph.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.base.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.base.num_directed_edges());
        offsets.push(0u64);
        for v in 0..n as VertexId {
            targets.extend_from_slice(self.neighbors(v));
            offsets.push(targets.len() as u64);
        }
        CsrGraph::from_raw_parts(offsets.into_boxed_slice(), targets.into_boxed_slice())
    }

    /// A seeded batch of `len` mutations against the current graph:
    /// [`INSERT_SHARE`] inserts between uniform vertex pairs, the rest
    /// deletes of edges present now (an insert stands in when a drawn
    /// vertex has no edge left to delete).
    pub fn mutation_batch(
        &self,
        rng: &mut StdRng,
        len: usize,
        sources: &[VertexId],
    ) -> Vec<EdgeMutation> {
        let n = self.base.num_vertices() as VertexId;
        let insert = |rng: &mut StdRng| loop {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            if u != v {
                return EdgeMutation::Insert(u, v);
            }
        };
        (0..len)
            .map(|_| {
                if rng.random::<f64>() < INSERT_SHARE {
                    return insert(rng);
                }
                let u = sources[rng.random_range(0..sources.len())];
                let list = self.neighbors(u);
                if list.is_empty() {
                    insert(rng)
                } else {
                    EdgeMutation::Delete(u, list[rng.random_range(0..list.len())])
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn model_follows_store_semantics() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let mut m = Model::new(&g);
        m.apply(&[
            EdgeMutation::Insert(0, 1), // present: no-op
            EdgeMutation::Insert(2, 3),
            EdgeMutation::Delete(0, 1),
            EdgeMutation::Delete(0, 3), // absent: no-op
        ]);
        let h = m.to_csr();
        assert_eq!(h.neighbors(0), &[] as &[VertexId]);
        assert_eq!(h.neighbors(1), &[2]);
        assert_eq!(h.neighbors(2), &[1, 3]);
        assert_eq!(h.neighbors(3), &[2]);
    }

    #[test]
    fn batches_are_seeded_and_valid() {
        let g = pbfs_graph::gen::Kronecker::graph500(8).seed(3).generate();
        let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| g.degree(v) > 0)
            .collect();
        let m = Model::new(&g);
        let a = m.mutation_batch(&mut StdRng::seed_from_u64(9), 500, &sources);
        let b = m.mutation_batch(&mut StdRng::seed_from_u64(9), 500, &sources);
        assert_eq!(a, b);
        let deletes = a
            .iter()
            .filter(|x| matches!(x, EdgeMutation::Delete(..)))
            .count();
        assert!((50..150).contains(&deletes), "{deletes} deletes");
        for x in &a {
            let (EdgeMutation::Insert(u, v) | EdgeMutation::Delete(u, v)) = *x;
            assert_ne!(u, v);
            if let EdgeMutation::Delete(u, v) = *x {
                assert!(g.has_edge(u, v));
            }
        }
    }
}
