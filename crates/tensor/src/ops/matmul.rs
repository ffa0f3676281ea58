//! Matrix multiplication kernels — single-threaded, with the hot kernel,
//! [`matmul_transb`], register-tiled and dispatched by CPU capability.

use crate::tensor::Tensor;

/// `C = A × B` for `A: [m, k]`, `B: [k, n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul rhs must be rank-2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (k2, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");

    let mut out = vec![0.0f32; m * n];
    let b_data = b.data();

    for (a_row, c_row) in a.data().chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        // ikj loop order: stream B rows, accumulate into C row.
        for (ki, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b_data[ki * n..(ki + 1) * n];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c += av * bv;
            }
        }
    }

    Tensor::from_vec([m, n], out)
}

/// Rows of A per register tile.
const MR: usize = 4;
/// Rows of B — the weight panel — per register tile.
const NR: usize = 3;
/// f32 lanes per accumulator: one AVX2 register.
const LANES: usize = 8;

/// `C = A × Bᵀ` for `A: [m, k]`, `B: [n, k]` — the natural layout for
/// linear layers stored as `[out_features, in_features]` and for the
/// unembedding against the `[vocab, hidden]` table.
///
/// The weight panel (`NR` rows of B) is the outermost loop, so every
/// weight row is read from memory once for all `m` activation rows; a
/// decode-step GEMV (`m ≤ 8`) is just a short row loop over that panel.
///
/// **Invariant:** `C[i][j]` is a function of row `i` of A and row `j` of
/// B only. Every tile shape and remainder path gives each output element
/// its own `LANES`-wide accumulator (lane `l` takes `k ≡ l mod LANES` in
/// ascending order), the same reduction tree over the lanes and the same
/// scalar tail, so a row computed alone is bit-identical to the same row
/// computed inside a batch. Zig-zag equivalence and `served ≡ solo
/// Engine::run` rest on this.
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_transb lhs must be rank-2");
    assert_eq!(b.rank(), 2, "matmul_transb rhs must be rank-2");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, k2) = (b.dim(0), b.dim(1));
    assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");

    let mut out = vec![0.0f32; m * n];
    transb_into(a.data(), b.data(), m, n, k, &mut out);
    Tensor::from_vec([m, n], out)
}

/// Run the instance of the tiled kernel this CPU supports.
fn transb_into(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the two features `transb_avx2` is compiled with were
        // just detected on the running CPU.
        #[allow(unsafe_code)]
        unsafe {
            transb_avx2(a, b, m, n, k, out)
        };
        return;
    }
    transb_portable(a, b, m, n, k, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn transb_avx2(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    transb_tiled::<true>(a, b, m, n, k, out);
}

/// The same body without hardware FMA. It multiplies then adds: without
/// the instruction `f32::mul_add` is a libm call per element.
fn transb_portable(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    transb_tiled::<false>(a, b, m, n, k, out);
}

#[inline(always)]
fn fmadd<const FUSED: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FUSED {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

#[inline(always)]
fn transb_tiled<const FUSED: bool>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    assert!(a.len() == m * k && b.len() == n * k && out.len() == m * n);
    for j0 in (0..n).step_by(NR) {
        let b = &b[j0 * k..];
        let out = &mut out[j0..];
        match n - j0 {
            1 => panel::<FUSED, 1>(a, b, m, n, k, out),
            2 => panel::<FUSED, 2>(a, b, m, n, k, out),
            _ => panel::<FUSED, NR>(a, b, m, n, k, out),
        }
    }
}

/// All `m` rows of A against one panel of `C` weight rows; `out` starts
/// at the panel's first column and has row stride `n`.
#[inline(always)]
fn panel<const FUSED: bool, const C: usize>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    let b = &b[..C * k];
    let mut i0 = 0;
    while i0 + MR <= m {
        tile::<FUSED, MR, C>(&a[i0 * k..], b, n, k, &mut out[i0 * n..]);
        i0 += MR;
    }
    match m - i0 {
        1 => tile::<FUSED, 1, C>(&a[i0 * k..], b, n, k, &mut out[i0 * n..]),
        2 => tile::<FUSED, 2, C>(&a[i0 * k..], b, n, k, &mut out[i0 * n..]),
        3 => tile::<FUSED, 3, C>(&a[i0 * k..], b, n, k, &mut out[i0 * n..]),
        _ => {}
    }
}

/// One `R × C` register tile: `out[i * n + j] = a_row(i) · b_row(j)`.
#[inline(always)]
fn tile<const FUSED: bool, const R: usize, const C: usize>(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    // Every row as whole `LANES`-wide groups plus its `k % LANES` tail.
    let a_rows: [_; R] = std::array::from_fn(|i| a[i * k..(i + 1) * k].as_chunks::<LANES>());
    let b_rows: [_; C] = std::array::from_fn(|j| b[j * k..(j + 1) * k].as_chunks::<LANES>());
    let chunks = k / LANES;

    let mut acc = [[[0.0f32; LANES]; C]; R];
    // Re-slicing to `chunks` tells the compiler every row is that long.
    for c in 0..chunks {
        let bv: [[f32; LANES]; C] = std::array::from_fn(|j| b_rows[j].0[..chunks][c]);
        for i in 0..R {
            let av = a_rows[i].0[..chunks][c];
            for j in 0..C {
                for l in 0..LANES {
                    acc[i][j][l] = fmadd::<FUSED>(av[l], bv[j][l], acc[i][j][l]);
                }
            }
        }
    }
    let mut sums = [[0.0f32; C]; R];
    lane_sums(acc.as_flattened(), sums.as_flattened_mut());
    for i in 0..R {
        for j in 0..C {
            let mut s = sums[i][j];
            for (x, w) in a_rows[i].1.iter().zip(b_rows[j].1) {
                s = fmadd::<FUSED>(*x, *w, s);
            }
            out[i * n + j] = s;
        }
    }
}

/// Sum each accumulator's lanes, always by the same tree. Deliberately
/// not inlined: seen together with the tile's FMA loop, the vectoriser
/// groups lane `l` of *different* outputs into one register for some
/// tile shapes (2×3 ran 4× slower than 4×3), and the call boundary pins
/// every accumulator to one register of `LANES` consecutive lanes.
#[inline(never)]
fn lane_sums(acc: &[[f32; LANES]], sums: &mut [f32]) {
    for (s, v) in sums.iter_mut().zip(acc) {
        *s = ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
    }
}

/// Dot product with 4-way unrolling (lets the autovectoriser keep four
/// independent accumulator lanes).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let ai = &a[i * 4..i * 4 + 4];
        let bi = &b[i * 4..i * 4 + 4];
        acc[0] += ai[0] * bi[0];
        acc[1] += ai[1] * bi[1];
        acc[2] += ai[2] * bi[2];
        acc[3] += ai[3] * bi[3];
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Reference (naive, sequential) matmul for differential testing.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    assert_eq!(k, b.dim(0));
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for p in 0..k {
                s += a.data()[i * k + p] * b.data()[p * n + j];
            }
            out[i * n + j] = s;
        }
    }
    Tensor::from_vec([m, n], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_naive_small() {
        let a = Tensor::randn([7, 5], 1.0, 1);
        let b = Tensor::randn([5, 9], 1.0, 2);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        assert!(fast.allclose(&slow, 1e-4));
    }

    #[test]
    fn matches_naive_blocked_boundary() {
        let a = Tensor::randn([69, 17], 1.0, 3);
        let b = Tensor::randn([17, 11], 1.0, 4);
        assert!(matmul(&a, &b).allclose(&matmul_naive(&a, &b), 1e-3));
    }

    #[test]
    fn transb_agrees_with_explicit_transpose() {
        let a = Tensor::randn([6, 8], 1.0, 5);
        let b = Tensor::randn([10, 8], 1.0, 6);
        let via_t = matmul(&a, &b.transpose2());
        let direct = matmul_transb(&a, &b);
        assert!(via_t.allclose(&direct, 1e-4));
    }

    type Kernel = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);

    /// The instance this host dispatches to and the portable one, which
    /// is a plain fn and so runs anywhere.
    const KERNELS: [(&str, Kernel); 2] =
        [("dispatched", transb_into), ("portable", transb_portable)];

    fn run(kernel: Kernel, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, n, k) = (a.dim(0), b.dim(0), a.dim(1));
        let mut out = vec![0.0f32; m * n];
        kernel(a.data(), b.data(), m, n, k, &mut out);
        Tensor::from_vec([m, n], out)
    }

    fn rows(t: &Tensor, r: std::ops::Range<usize>) -> Tensor {
        let cols = t.dim(1);
        Tensor::from_vec(
            [r.len(), cols],
            t.data()[r.start * cols..r.end * cols].to_vec(),
        )
    }

    /// Every (m, n, k) that crosses each tile and lane remainder.
    fn tile_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        (1..=9).flat_map(|m| {
            [1, 2, 3, 4, 7, 64]
                .into_iter()
                .flat_map(move |n| [1, 7, 8, 9, 64, 100].into_iter().map(move |k| (m, n, k)))
        })
    }

    #[test]
    fn an_output_depends_only_on_its_own_row_and_column() {
        for (name, kernel) in KERNELS {
            for (m, n, k) in tile_shapes() {
                let a = Tensor::randn([m, k], 1.0, (m * 1000 + k) as u64);
                let b = Tensor::randn([n, k], 1.0, (n * 1000 + k) as u64 + 7);
                let full = run(kernel, &a, &b);
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                for i in 0..m {
                    let alone = run(kernel, &rows(&a, i..i + 1), &b);
                    assert_eq!(
                        bits(alone.data()),
                        bits(full.row(i)),
                        "{name} [{m},{k}]x[{n},{k}]ᵀ: row {i} differs when computed alone"
                    );
                }
                for j in 0..n {
                    let alone = run(kernel, &a, &rows(&b, j..j + 1));
                    let column: Vec<f32> = (0..m).map(|i| full.at(&[i, j])).collect();
                    assert_eq!(
                        bits(alone.data()),
                        bits(&column),
                        "{name} [{m},{k}]x[{n},{k}]ᵀ: column {j} differs when computed alone"
                    );
                }
            }
        }
    }

    #[test]
    fn both_instances_match_naive() {
        for (name, kernel) in KERNELS {
            for (m, n, k) in tile_shapes() {
                let a = Tensor::randn([m, k], 1.0, (m + k) as u64);
                let b = Tensor::randn([n, k], 1.0, (n + k) as u64 + 3);
                let fast = run(kernel, &a, &b);
                let slow = matmul_naive(&a, &b.transpose2());
                for (f, s) in fast.data().iter().zip(slow.data()) {
                    assert!(
                        (f - s).abs() <= 1e-3 * (1.0 + s.abs()),
                        "{name} [{m},{k}]x[{n},{k}]ᵀ: {f} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::randn([4, 4], 1.0, 7);
        let mut eye = Tensor::zeros([4, 4]);
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert!(matmul(&a, &eye).allclose(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        matmul(&a, &b);
    }

    proptest! {
        #[test]
        fn prop_parallel_equals_naive(
            m in 1usize..40,
            k in 1usize..20,
            n in 1usize..20,
            seed in 0u64..1000,
        ) {
            let a = Tensor::randn([m, k], 1.0, seed);
            let b = Tensor::randn([k, n], 1.0, seed.wrapping_add(1));
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            prop_assert!(fast.allclose(&slow, 1e-3));
        }

        #[test]
        fn prop_dot_is_commutative(len in 0usize..200, seed in 0u64..1000) {
            let a = Tensor::randn([len.max(1)], 1.0, seed);
            let b = Tensor::randn([len.max(1)], 1.0, seed.wrapping_add(9));
            let ab = dot(a.data(), b.data());
            let ba = dot(b.data(), a.data());
            prop_assert!((ab - ba).abs() <= 1e-4 * (1.0 + ab.abs()));
        }
    }
}
