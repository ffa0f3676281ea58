//! Operator dependency graphs (Figure 6): the compute task of attention
//! decomposed into operators with explicit dependencies.

use serde::{Deserialize, Serialize};

/// Kinds of operators appearing in the offloaded attention compute task.
/// Names follow the autograd-style labels the paper quotes
/// (`AddmmBackward`, `BmmBackward`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Dense projection (Q/K/V/output): `Addmm`.
    Addmm,
    /// Batched matmul (QKᵀ scores, attention·V): `Bmm`.
    Bmm,
    /// Softmax over scores.
    Softmax,
    /// KV-cache concatenation.
    Concat,
    /// Elementwise glue (scale, mask, view, copy).
    Elementwise,
}

/// One operator node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpNode {
    pub name: String,
    pub kind: OpKind,
    /// Work in FLOPs (drives the execution-time estimate).
    pub flops: f64,
    /// Bytes touched (drives the memory-bound estimate and bundling).
    pub bytes: f64,
}

/// A DAG of operators. Edges point from producer to consumer.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OpGraph {
    pub nodes: Vec<OpNode>,
    /// `edges[i]` = indices of nodes consuming node `i`'s output.
    pub edges: Vec<Vec<usize>>,
}

/// A structurally invalid edge request on an [`OpGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint index is not a node of the graph.
    IndexOutOfBounds { from: usize, to: usize, len: usize },
    /// `from == to`: an operator cannot depend on its own output.
    SelfEdge(usize),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::IndexOutOfBounds { from, to, len } => {
                write!(f, "bad node index: edge {from}->{to} on a {len}-node graph")
            }
            GraphError::SelfEdge(n) => write!(f, "self-dependency on node {n}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl OpGraph {
    pub fn new() -> Self {
        OpGraph::default()
    }

    /// Add a node, returning its index.
    pub fn add(&mut self, name: impl Into<String>, kind: OpKind, flops: f64, bytes: f64) -> usize {
        self.nodes.push(OpNode {
            name: name.into(),
            kind,
            flops,
            bytes,
        });
        self.edges.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Add a dependency: `to` consumes `from`'s output. Rejects edges to
    /// nonexistent nodes and self-edges instead of panicking — the entry
    /// point for graphs assembled from untrusted input (deserialized
    /// plans, generated sweeps).
    pub fn try_depend(&mut self, from: usize, to: usize) -> Result<(), GraphError> {
        if from >= self.nodes.len() || to >= self.nodes.len() {
            return Err(GraphError::IndexOutOfBounds {
                from,
                to,
                len: self.nodes.len(),
            });
        }
        if from == to {
            return Err(GraphError::SelfEdge(from));
        }
        if !self.edges[from].contains(&to) {
            self.edges[from].push(to);
        }
        Ok(())
    }

    /// Add a dependency: `to` consumes `from`'s output.
    ///
    /// Panics on bad indices or self-edges; builders working with indices
    /// they just created use this, everything else should prefer
    /// [`OpGraph::try_depend`].
    pub fn depend(&mut self, from: usize, to: usize) {
        match self.try_depend(from, to) {
            Ok(()) => {}
            Err(GraphError::IndexOutOfBounds { .. }) => panic!("bad node index"),
            Err(GraphError::SelfEdge(_)) => panic!("self-dependency"),
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.len()];
        for outs in &self.edges {
            for &t in outs {
                deg[t] += 1;
            }
        }
        deg
    }

    /// Predecessors of every node (inverse adjacency).
    pub fn predecessors(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.len()];
        for (from, outs) in self.edges.iter().enumerate() {
            for &t in outs {
                preds[t].push(from);
            }
        }
        preds
    }

    /// Total FLOPs across all nodes.
    pub fn total_flops(&self) -> f64 {
        self.nodes.iter().map(|n| n.flops).sum()
    }

    /// Total bytes across all nodes.
    pub fn total_bytes(&self) -> f64 {
        self.nodes.iter().map(|n| n.bytes).sum()
    }
}

/// Build the decode-phase attention dependency graph of Figure 6 for a
/// block of `bls` sequences at sequence length `seq`, hidden size `h1`,
/// with the per-head work split into `head_groups` independent strips
/// (PyTorch dispatches grouped-head BMMs as independent operators, which
/// is where inter-op parallelism inside one attention call comes from).
pub fn attention_graph(bls: u64, seq: u64, h1: u64, head_groups: usize) -> OpGraph {
    assert!(head_groups >= 1, "need at least one head group");
    let mut g = OpGraph::new();
    let b = bls as f64;
    let s = seq as f64;
    let h = h1 as f64;
    let f32b = 4.0;

    // Q/K/V projections: three independent Addmm ops, 2·b·h² FLOPs each.
    let q = g.add("q_proj", OpKind::Addmm, 2.0 * b * h * h, (b * h + h * h) * f32b);
    let k = g.add("k_proj", OpKind::Addmm, 2.0 * b * h * h, (b * h + h * h) * f32b);
    let v = g.add("v_proj", OpKind::Addmm, 2.0 * b * h * h, (b * h + h * h) * f32b);

    // KV-cache concatenation (append new K/V).
    let cat = g.add("kv_concat", OpKind::Concat, 0.0, 2.0 * b * h * f32b);
    g.depend(k, cat);
    g.depend(v, cat);

    // Per-head-group score/softmax/mix pipelines, independent of each other.
    let group_flops_scores = 2.0 * b * s * h / head_groups as f64;
    let group_bytes_scores = (b * s * h / head_groups as f64) * f32b;
    let mut mixes = Vec::with_capacity(head_groups);
    for gi in 0..head_groups {
        let scores = g.add(
            format!("bmm_qk[{gi}]"),
            OpKind::Bmm,
            group_flops_scores,
            group_bytes_scores,
        );
        g.depend(q, scores);
        g.depend(cat, scores);
        let sm = g.add(
            format!("softmax[{gi}]"),
            OpKind::Softmax,
            3.0 * b * s * h / (head_groups as f64 * (h / s).max(1.0)),
            (b * s) * f32b / head_groups as f64,
        );
        g.depend(scores, sm);
        let mix = g.add(
            format!("bmm_av[{gi}]"),
            OpKind::Bmm,
            group_flops_scores,
            group_bytes_scores,
        );
        g.depend(sm, mix);
        g.depend(cat, mix);
        mixes.push(mix);
    }

    // Output projection joins all head groups.
    let out = g.add("out_proj", OpKind::Addmm, 2.0 * b * h * h, (b * h + h * h) * f32b);
    for m in mixes {
        g.depend(m, out);
    }
    g
}

/// Build the compute graph of a whole zig-zag block's decode step: one
/// independent per-batch attention graph per GPU batch. This is what the
/// *default* inter-op pool actually sees — operators from every batch
/// queue together — and therefore what the Fig. 5 characterisation sweeps
/// over. (Algorithm 3 sizes inter-op from the per-batch graph, which is
/// the unit it grants threads to.)
pub fn attention_block_graph(
    gpu_batch: u64,
    num_batches: u64,
    seq: u64,
    h1: u64,
    head_groups: usize,
) -> OpGraph {
    assert!(num_batches >= 1, "need at least one batch");
    let mut out = OpGraph::new();
    for b in 0..num_batches {
        let sub = attention_graph(gpu_batch, seq, h1, head_groups);
        let offset = out.len();
        for node in sub.nodes {
            out.add(format!("b{b}:{}", node.name), node.kind, node.flops, node.bytes);
        }
        for (from, outs) in sub.edges.into_iter().enumerate() {
            for to in outs {
                out.depend(offset + from, offset + to);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_graph_replicates_batches() {
        let per = attention_graph(8, 16, 64, 3);
        let block = attention_block_graph(8, 4, 16, 64, 3);
        assert_eq!(block.len(), 4 * per.len());
        assert!((block.total_flops() - 4.0 * per.total_flops()).abs() < 1e-6);
        // Batches are independent: width multiplies.
        let a = crate::kahn::analyze(&block).unwrap();
        let a1 = crate::kahn::analyze(&per).unwrap();
        assert_eq!(a.max_concurrency(), 4 * a1.max_concurrency());
    }

    #[test]
    fn attention_graph_structure() {
        let g = attention_graph(64, 128, 512, 4);
        // 3 projections + concat + 4*(scores, softmax, mix) + out = 17.
        assert_eq!(g.len(), 17);
        let deg = g.in_degrees();
        // Projections are sources.
        assert_eq!(deg[0], 0);
        assert_eq!(deg[1], 0);
        assert_eq!(deg[2], 0);
        // Output projection has one incoming edge per head group.
        assert_eq!(*deg.last().unwrap(), 4);
    }

    #[test]
    fn depend_deduplicates() {
        let mut g = OpGraph::new();
        let a = g.add("a", OpKind::Elementwise, 1.0, 1.0);
        let b = g.add("b", OpKind::Elementwise, 1.0, 1.0);
        g.depend(a, b);
        g.depend(a, b);
        assert_eq!(g.edges[a].len(), 1);
        assert_eq!(g.in_degrees()[b], 1);
    }

    #[test]
    #[should_panic(expected = "self-dependency")]
    fn self_edges_rejected() {
        let mut g = OpGraph::new();
        let a = g.add("a", OpKind::Bmm, 1.0, 1.0);
        g.depend(a, a);
    }

    #[test]
    fn try_depend_reports_structured_errors() {
        let mut g = OpGraph::new();
        let a = g.add("a", OpKind::Bmm, 1.0, 1.0);
        let b = g.add("b", OpKind::Bmm, 1.0, 1.0);
        assert_eq!(g.try_depend(a, a), Err(GraphError::SelfEdge(a)));
        assert_eq!(
            g.try_depend(a, 7),
            Err(GraphError::IndexOutOfBounds { from: a, to: 7, len: 2 })
        );
        assert!(g.try_depend(a, b).is_ok());
        assert_eq!(g.edges[a], vec![b]);
        // Errors render with enough context to act on.
        let msg = GraphError::IndexOutOfBounds { from: 9, to: 1, len: 2 }.to_string();
        assert!(msg.contains("9->1") && msg.contains("2-node"), "{msg}");
    }

    #[test]
    fn predecessors_invert_edges() {
        let g = attention_graph(8, 16, 64, 2);
        let preds = g.predecessors();
        for (from, outs) in g.edges.iter().enumerate() {
            for &t in outs {
                assert!(preds[t].contains(&from));
            }
        }
    }

    proptest! {
        /// The shipped builders, at any positive shape: acyclic, every
        /// node wired to another, and FLOPs on every compute node.
        #[test]
        fn prop_attention_graphs_wire_every_node_and_price_compute(
            batch in 1u64..1024,
            seq in 1u64..4096,
            hidden in 1u64..16_384,
            groups in 1usize..9,
            batches in 1u64..5,
        ) {
            for g in [
                attention_graph(batch, seq, hidden, groups),
                attention_block_graph(batch, batches, seq, hidden, groups),
            ] {
                prop_assert!(crate::kahn::analyze(&g).is_some());
                let degrees = g.in_degrees();
                for (u, node) in g.nodes.iter().enumerate() {
                    prop_assert!(degrees[u] > 0 || !g.edges[u].is_empty(), "{}", node.name);
                    if matches!(node.kind, OpKind::Addmm | OpKind::Bmm | OpKind::Softmax) {
                        prop_assert!(node.flops > 0.0, "{} carries no FLOPs", node.name);
                    }
                }
            }
        }

        /// Whatever edges are requested, the adjacency stays a set of
        /// in-bounds, non-self edges: `try_depend` refuses the rest.
        #[test]
        fn prop_try_depend_keeps_the_adjacency_a_set(
            n in 1usize..12,
            requests in collection::vec(0usize..256, 0..64),
        ) {
            let mut g = OpGraph::new();
            for i in 0..n {
                g.add(format!("n{i}"), OpKind::Elementwise, 1.0, 1.0);
            }
            // Each request encodes an edge between indices 0..16.
            for (from, to) in requests.iter().map(|r| (r / 16, r % 16)) {
                let accepted = g.try_depend(from, to).is_ok();
                prop_assert_eq!(accepted, from < n && to < n && from != to);
            }
            for (from, outs) in g.edges.iter().enumerate() {
                let mut seen = std::collections::HashSet::new();
                for &to in outs {
                    prop_assert!(to < n && to != from && seen.insert(to), "{from}->{to}");
                }
            }
        }
    }

    #[test]
    fn flops_scale_with_block() {
        let small = attention_graph(8, 16, 64, 2);
        let big = attention_graph(16, 16, 64, 2);
        assert!((big.total_flops() / small.total_flops() - 2.0).abs() < 1e-9);
    }
}
