//! ROADMAP item 2's gate on the kernel's loop order (the Table 5 story,
//! applied to our own code): `matmul_transb` walks the weight panel
//! outermost, so a decode-step GEMV streams the weights through the cache
//! once; the nest it replaced walked rows of A outermost and streamed them
//! once per row. Both line-address traces go through `lm-cachesim` at
//! `offline_decode`'s fc1 shape and an L2 like this host's.

use lm_cachesim::{Access, SetAssocCache};

/// `[M, K] × [N, K]ᵀ`: four prompts against OPT-125M's fc1.
const M: u64 = 4;
const N: u64 = 3072;
const K: u64 = 768;
const LINE: u64 = 64;
/// Base addresses of the three matrices, laid end to end.
const A: u64 = 0;
const B: u64 = A + M * K * 4;
const C: u64 = B + N * K * 4;
/// Rows of B per panel, as in the kernel.
const NR: u64 = 3;

fn load(base: u64, row: u64, byte: u64) -> Access {
    Access::load(base + row * K * 4 + byte)
}

fn store_c(i: u64, j: u64) -> Access {
    Access::store(C + (i * N + j) * 4)
}

/// Row of A outermost: one dot product per output element.
fn row_outer() -> impl Iterator<Item = Access> {
    (0..M).flat_map(|i| {
        (0..N).flat_map(move |j| {
            (0..K * 4)
                .step_by(LINE as usize)
                .flat_map(move |p| [load(A, i, p), load(B, j, p)])
                .chain([store_c(i, j)])
        })
    })
}

/// Weight panel outermost, every row of A against it, k innermost.
fn panel_outer() -> impl Iterator<Item = Access> {
    (0..N).step_by(NR as usize).flat_map(|j0| {
        let loads = (0..K * 4).step_by(LINE as usize).flat_map(move |p| {
            (j0..j0 + NR)
                .map(move |j| load(B, j, p))
                .chain((0..M).map(move |i| load(A, i, p)))
        });
        loads.chain((0..M).flat_map(move |i| (j0..j0 + NR).map(move |j| store_c(i, j))))
    })
}

#[test]
fn weight_panel_outermost_reads_the_weights_once() {
    let l2 = || SetAssocCache::new(2 << 20, 16, LINE);
    let old = l2().run(row_outer()).misses();
    let new = l2().run(panel_outer()).misses();
    let compulsory = (N * K + M * K) * 4 / LINE;
    assert!(
        new as f64 <= 1.05 * compulsory as f64,
        "panel-outer misses {new} vs {compulsory} lines of A and B"
    );
    assert!(
        old >= 3 * new,
        "row-outer {old} misses vs panel-outer {new}"
    );
}
