//! `LMA0xx` — operator dependency graphs, before they reach the executor
//! or Algorithm 3. The executor rejects a cyclic graph; the lints name
//! the cycle, flag dead weight, and check what the builder API enforces
//! but a deserialized graph may violate.

use crate::diag::{Diagnostic, LintCode, Report};
use lm_parallelism::kahn;
use lm_parallelism::{OpGraph, OpKind};

/// Render a node as `index (name)` for diagnostics.
fn node_label(g: &OpGraph, u: usize) -> String {
    match g.nodes.get(u) {
        Some(n) => format!("node {u} ({})", n.name),
        None => format!("node {u}"),
    }
}

/// Run every graph lint over `g`.
pub fn lint_graph(g: &OpGraph) -> Report {
    let mut out = Vec::new();
    let n = g.len();

    // LMA005 / LMA006 / LMA003: raw edge-list hygiene. These precede the
    // Kahn-based lints because out-of-bounds targets would panic them.
    let mut structurally_sound = true;
    for (from, outs) in g.edges.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for &to in outs {
            if from >= n || to >= n {
                structurally_sound = false;
                out.push(Diagnostic::error(
                    LintCode::Lma005EdgeOutOfBounds,
                    format!("edge {from}->{to}"),
                    format!("edge endpoint outside the {n}-node graph"),
                ));
                continue;
            }
            if from == to {
                structurally_sound = false;
                out.push(Diagnostic::error(
                    LintCode::Lma006SelfEdge,
                    node_label(g, from),
                    "operator depends on its own output".to_string(),
                ));
                continue;
            }
            if !seen.insert(to) {
                out.push(Diagnostic::warn(
                    LintCode::Lma003DuplicateEdge,
                    format!("edge {from}->{to}"),
                    "dependency recorded more than once; in-degree counting \
                     would double-release the consumer"
                        .to_string(),
                ));
            }
        }
    }
    if g.edges.len() != n {
        structurally_sound = false;
        out.push(Diagnostic::error(
            LintCode::Lma005EdgeOutOfBounds,
            "graph".to_string(),
            format!(
                "adjacency list has {} rows for {n} nodes",
                g.edges.len()
            ),
        ));
    }

    // LMA004: zero-cost compute nodes. Concat/Elementwise/Transfer nodes
    // legitimately carry zero FLOPs, but a zero-FLOP *and* zero-byte
    // Addmm/Bmm/Softmax means the cost model will schedule a no-op and
    // the profile table degenerates.
    for (u, node) in g.nodes.iter().enumerate() {
        let is_compute = matches!(node.kind, OpKind::Addmm | OpKind::Bmm | OpKind::Softmax);
        if is_compute && node.flops == 0.0 && node.bytes == 0.0 {
            out.push(Diagnostic::warn(
                LintCode::Lma004ZeroCostNode,
                node_label(g, u),
                format!("{:?} node with zero FLOPs and zero bytes", node.kind),
            ));
        }
    }

    if !structurally_sound {
        // Kahn-based lints assume in-bounds edges.
        return Report::new(out);
    }

    // LMA001: cycles, with the witness walk.
    match kahn::analyze(g) {
        None => {
            let cycle = kahn::find_cycle(g).unwrap_or_default();
            let path: Vec<String> = cycle.iter().map(|&u| u.to_string()).collect();
            let closed = match cycle.first() {
                Some(first) => format!("{} -> {first}", path.join(" -> ")),
                None => path.join(" -> "),
            };
            out.push(Diagnostic::error(
                LintCode::Lma001CyclicGraph,
                "graph".to_string(),
                format!("dependency cycle: {closed}"),
            ));
        }
        Some(analysis) => {
            // LMA002: isolated nodes. In a multi-node graph a node with no
            // predecessors and no successors is dead weight the scheduler
            // still pays a launch for.
            if n > 1 {
                for (u, d) in g.in_degrees().into_iter().enumerate() {
                    if d == 0 && g.edges[u].is_empty() {
                        out.push(Diagnostic::warn(
                            LintCode::Lma002OrphanNode,
                            node_label(g, u),
                            "isolated node: no producers and no consumers".to_string(),
                        ));
                    }
                }
            }

            // LMA007: Transfer nodes sharing a wavefront with compute
            // operators. Transfers are meant to sit at wavefront
            // boundaries (staging between compute levels); a transfer
            // co-scheduled with compute in the same level competes for
            // the copy threads Algorithm 3 reserved separately.
            for (u, node) in g.nodes.iter().enumerate() {
                if node.kind != OpKind::Transfer {
                    continue;
                }
                let level = analysis.levels[u];
                let compute_peer = (0..n).find(|&v| {
                    analysis.levels[v] == level
                        && matches!(
                            g.nodes[v].kind,
                            OpKind::Addmm | OpKind::Bmm | OpKind::Softmax
                        )
                });
                if let Some(v) = compute_peer {
                    out.push(Diagnostic::warn(
                        LintCode::Lma007TransferOffBoundary,
                        node_label(g, u),
                        format!(
                            "transfer shares wavefront {level} with compute {}",
                            node_label(g, v)
                        ),
                    ));
                }
            }
        }
    }

    Report::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_parallelism::attention_graph;

    #[test]
    fn shipped_attention_graphs_are_clean() {
        for groups in [1usize, 3, 7] {
            let r = lint_graph(&attention_graph(64, 128, 512, groups));
            assert!(r.is_clean(), "groups {groups}: {r}");
            assert_eq!(r.warning_count(), 0, "groups {groups}: {r}");
        }
    }

    #[test]
    fn cycle_reported_with_path() {
        let mut g = attention_graph(8, 16, 64, 2);
        let last = g.len() - 1;
        g.depend(last, 0);
        let r = lint_graph(&g);
        assert!(r.has(LintCode::Lma001CyclicGraph));
        assert!(!r.is_clean());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::Lma001CyclicGraph)
            .unwrap();
        assert!(d.message.contains("->"), "{}", d.message);
    }

    #[test]
    fn empty_graph_is_clean() {
        assert!(lint_graph(&OpGraph::new()).diagnostics.is_empty());
    }
}
