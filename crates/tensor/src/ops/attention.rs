//! Multi-head self-attention with a KV cache — the computation of Figure 1:
//! scores `QKᵀ/√d_k`, softmax, then the value mixdown. One kernel,
//! [`attend`], serves prefill and decode: the new rows' K/V are appended
//! first, and each new row attends every cached position up to its own.
//!
//! The cache keeps each sequence's K and V in pages of [`KV_PAGE_TOKENS`]
//! positions, f32 or group-quantised row by row (FlexGen's `compress_cache`,
//! Eq. 5-7); as in FlexGen's `mha_gen`, the step that writes a row attends it
//! at full precision and the next append quantises it, once. [`attend`]
//! reads the pages in place, dequantising one page at a time.

use crate::ops::elementwise::softmax_slice;
use crate::ops::matmul::dot;
use crate::quant::{dequantize_from, quantize_into, QuantConfig};
use crate::tensor::Tensor;

/// Token positions per KV page; `lm-serve` tiles its page table with the
/// same cap, so an engine page and a pool page cover the same positions.
pub const KV_PAGE_TOKENS: usize = 16;

/// Key/value cache for one transformer layer: per sequence, pages of
/// keys and of values, growing as tokens are generated — the *linear*
/// growth the paper highlights in Figure 1.
#[derive(Debug, Clone)]
pub struct KvCache {
    batch: usize,
    hidden: usize,
    capacity: usize,
    len: usize,
    quant: Option<QuantConfig>,
    /// `k[b][p]`: positions `p·KV_PAGE_TOKENS..` of sequence `b`.
    k: Vec<Vec<Page>>,
    v: Vec<Vec<Page>>,
}

/// Up to [`KV_PAGE_TOKENS`] rows of one sequence's keys or values. Rows
/// `..sealed` are group-quantised into one code buffer, each row padded to
/// whole groups (row `r`'s groups are numbered from `r·row_groups`); the
/// rows after them are in `rows` at f32 — every row of an f32 cache, the
/// latest append's rows of a quantised one.
#[derive(Debug, Clone, Default)]
struct Page {
    packed: Vec<u8>,
    mins: Vec<f32>,
    ranges: Vec<f32>,
    sealed: usize,
    rows: Vec<f32>,
}

impl Page {
    /// An empty page with room for `rows` rows.
    fn open(rows: usize, hidden: usize, quant: Option<QuantConfig>) -> Self {
        let mut page = Page::default();
        let Some(config) = quant else {
            page.rows.reserve_exact(rows * hidden);
            return page;
        };
        let groups = rows * config.layout(hidden).0;
        page.packed = vec![0; config.layout(groups * config.group_size).1];
        (page.mins, page.ranges) = (vec![0.0; groups], vec![0.0; groups]);
        page
    }

    /// Quantise the f32 rows, once.
    fn seal(&mut self, config: QuantConfig, hidden: usize) {
        let row_groups = config.layout(hidden).0;
        for row in std::mem::take(&mut self.rows).chunks(hidden) {
            let out = (&mut *self.packed, &mut *self.mins, &mut *self.ranges);
            quantize_into(row, config, self.sealed * row_groups, out);
            self.sealed += 1;
        }
    }

    /// The page's rows at f32, `[rows, hidden]`: in place while none is
    /// sealed, else dequantised into `scratch`, the f32 rows copied after.
    fn read<'a>(&'a self, cache: &KvCache, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        let Some(config) = cache.quant.filter(|_| self.sealed > 0) else {
            return &self.rows;
        };
        let hidden = cache.hidden;
        let (row_groups, sealed) = (config.layout(hidden).0, self.sealed * hidden);
        scratch.resize(sealed + self.rows.len(), 0.0);
        let codes = (&*self.packed, &*self.mins, &*self.ranges);
        for (r, out) in scratch[..sealed].chunks_mut(hidden).enumerate() {
            dequantize_from(codes, config, r * row_groups, out);
        }
        scratch[sealed..].copy_from_slice(&self.rows);
        scratch
    }
}

impl KvCache {
    /// An empty f32 cache able to hold `capacity` token positions.
    pub fn new(batch: usize, hidden: usize, capacity: usize) -> Self {
        KvCache {
            batch,
            hidden,
            capacity,
            len: 0,
            quant: None,
            k: vec![Vec::new(); batch],
            v: vec![Vec::new(); batch],
        }
    }

    /// An empty cache that group-quantises each row once: the append after
    /// the one that wrote it does. Until then the row reads as written.
    pub fn new_quantized(batch: usize, hidden: usize, capacity: usize, q: QuantConfig) -> Self {
        KvCache {
            quant: Some(q),
            ..KvCache::new(batch, hidden, capacity)
        }
    }

    /// Sequences the cache holds, one row each.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Cached token positions so far.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// At-rest bytes of the cached positions, K and V.
    pub fn bytes(&self) -> usize {
        self.bytes_for(self.len)
    }

    /// At-rest bytes of `positions` positions: 4 per element of an f32 row,
    /// or per row the codes plus an f32 min and range per group
    /// (`QuantizedTensor::bytes`).
    /// It counts data only — no allocation headers — and prices the fresh
    /// rows of a quantised cache as they will be stored, quantised.
    pub fn bytes_for(&self, positions: usize) -> usize {
        let layout = |q: QuantConfig| q.layout(self.hidden);
        let (groups, code_bytes) = self.quant.map_or((0, 4 * self.hidden), layout);
        2 * self.batch * positions * (code_bytes + 2 * groups * 4)
    }

    /// Append `t` new token positions: `k_new`/`v_new` are
    /// `[batch, t, hidden]` (or `[batch, hidden]` for `t = 1`).
    pub fn append(&mut self, k_new: &Tensor, v_new: &Tensor) {
        let (b, t, h) = new_rows(k_new, "KvCache::append");
        assert_eq!(b, self.batch, "batch mismatch");
        assert_eq!(h, self.hidden, "hidden mismatch");
        assert_eq!(k_new.shape(), v_new.shape(), "K/V shape mismatch");
        assert!(
            self.len + t <= self.capacity,
            "KV cache overflow: {} + {t} > {}",
            self.len,
            self.capacity
        );
        for (pages, new) in [(&mut self.k, k_new), (&mut self.v, v_new)] {
            for (seq, rows) in pages.iter_mut().zip(new.data().chunks(t * h)) {
                // The previous append's rows, the trailing pages holding f32.
                if let Some(config) = self.quant {
                    let fresh = seq.iter_mut().rev().take_while(|p| !p.rows.is_empty());
                    fresh.for_each(|page| page.seal(config, h));
                }
                for (pos, row) in (self.len..).zip(rows.chunks(h)) {
                    if pos % KV_PAGE_TOKENS == 0 {
                        let room = KV_PAGE_TOKENS.min(self.capacity - pos);
                        seq.push(Page::open(room, h, self.quant));
                    }
                    let page = seq.last_mut().expect("a page opens at every page boundary");
                    page.rows.extend_from_slice(row);
                }
            }
        }
        self.len += t;
    }

    /// Keys of batch item `b` at f32: `[len, hidden]`, row-major.
    pub fn keys(&self, b: usize) -> Vec<f32> {
        self.gather(&self.k[b])
    }

    /// Values of batch item `b` at f32: `[len, hidden]`, row-major.
    pub fn values(&self, b: usize) -> Vec<f32> {
        self.gather(&self.v[b])
    }

    fn gather(&self, pages: &[Page]) -> Vec<f32> {
        let mut scratch = Vec::new();
        let read = |p: &Page| p.read(self, &mut scratch).to_vec();
        pages.iter().flat_map(read).collect()
    }

    /// `f(self)`, kept because `benchmark/src/micro.rs` calls it.
    pub fn with_full<R>(&mut self, f: impl FnOnce(&mut KvCache) -> R) -> R {
        f(self)
    }
}

/// `(batch, t, hidden)` of `t` new rows per sequence: `x` is
/// `[batch, t, hidden]`, or `[batch, hidden]` for `t = 1`.
fn new_rows(x: &Tensor, caller: &str) -> (usize, usize, usize) {
    match x.rank() {
        2 => (x.dim(0), 1, x.dim(1)),
        3 => (x.dim(0), x.dim(1), x.dim(2)),
        r => panic!("{caller} expects rank 2 or 3, got {r}"),
    }
}

/// Attention for the `t` newest positions of every sequence in `cache`,
/// whose K/V the cache already holds last: `q` is `[batch, t, hidden]`, or
/// `[batch, hidden]` for `t = 1` (the rank rule of [`KvCache::append`]), and
/// the output has `q`'s shape. Row `i` sits at position `len − t + i` and
/// attends positions `0..=len − t + i` — causal among the new rows, and
/// every earlier position of the cache.
///
/// Per sequence and row, on the calling thread: every head's scores page
/// by page up to the row's own position, a softmax per head, then the
/// value mixdown page by page — each output element sums its positions in
/// order, so pages change no bit. A quantised page's sealed rows are
/// dequantised once per new row for K and once for V; the rows of the
/// latest append are read at f32, as written, so a prefill onto an empty
/// cache dequantises nothing. The scores (`heads × len`) and one
/// dequantised page are the call's only scratch.
pub fn attend(q: &Tensor, cache: &KvCache, num_heads: usize) -> Tensor {
    let (batch, t, hidden) = new_rows(q, "attend");
    assert_eq!(batch, cache.batch, "batch mismatch");
    assert_eq!(hidden, cache.hidden, "hidden mismatch");
    assert_eq!(hidden % num_heads, 0, "hidden not divisible by heads");
    let len = cache.len();
    assert!(
        (1..=len).contains(&t),
        "the new rows must be in the cache: {t} rows attending {len} cached positions"
    );
    let hd = hidden / num_heads;
    let scale = 1.0 / (hd as f32).sqrt();

    let mut out = vec![0.0f32; batch * t * hidden];
    let mut scores = vec![0.0f32; num_heads * len];
    let mut scratch = Vec::new();
    let seqs = q.data().chunks(t * hidden).zip(out.chunks_mut(t * hidden));
    for ((q_rows, out_rows), (k_pages, v_pages)) in seqs.zip(cache.k.iter().zip(&cache.v)) {
        // Each row attends `n` positions; `scores[h * n + p]` is head
        // `h`'s weight on position `p`.
        let rows = q_rows.chunks(hidden).zip(out_rows.chunks_mut(hidden));
        for (n, (q_row, out_row)) in (len - t + 1..).zip(rows) {
            let (scores, pages) = (&mut scores[..num_heads * n], n.div_ceil(KV_PAGE_TOKENS));
            for (p, page) in k_pages[..pages].iter().enumerate() {
                let keys = page.read(cache, &mut scratch);
                for (h, head_scores) in scores.chunks_mut(n).enumerate() {
                    let q_head = &q_row[h * hd..(h + 1) * hd];
                    let page_scores = head_scores[p * KV_PAGE_TOKENS..].iter_mut();
                    for (s, k_row) in page_scores.zip(keys.chunks_exact(hidden)) {
                        *s = dot(q_head, &k_row[h * hd..(h + 1) * hd]) * scale;
                    }
                }
            }
            scores.chunks_mut(n).for_each(softmax_slice);
            for (p, page) in v_pages[..pages].iter().enumerate() {
                let values = page.read(cache, &mut scratch);
                for (h, head_scores) in scores.chunks(n).enumerate() {
                    let out_head = &mut out_row[h * hd..(h + 1) * hd];
                    let page_scores = head_scores[p * KV_PAGE_TOKENS..].iter();
                    for (&w, v_row) in page_scores.zip(values.chunks_exact(hidden)) {
                        for (o, &v) in out_head.iter_mut().zip(&v_row[h * hd..(h + 1) * hd]) {
                            *o += w * v;
                        }
                    }
                }
            }
        }
    }

    Tensor::from_vec(q.shape().clone(), out)
}

/// [`attend`] for one new row per sequence, `q` `[batch, hidden]`; kept
/// because `benchmark/src/micro.rs` calls it.
pub fn mha_decode(q: &Tensor, cache: &KvCache, num_heads: usize) -> Tensor {
    assert_eq!(q.rank(), 2, "decode query must be [batch, hidden]");
    attend(q, cache, num_heads)
}

/// [`attend`] over a fresh f32 cache holding `k`/`v`: causal attention
/// among `s` positions, all `[batch, s, hidden]`; kept because
/// `benchmark/src/micro.rs` calls it.
pub fn mha_prefill(q: &Tensor, k: &Tensor, v: &Tensor, num_heads: usize) -> Tensor {
    assert_eq!(q.rank(), 3, "prefill tensors must be [batch, s, hidden]");
    assert_eq!(q.shape(), k.shape(), "Q/K shape mismatch");
    let mut cache = KvCache::new(q.dim(0), q.dim(2), q.dim(1));
    cache.append(k, v);
    attend(q, &cache, num_heads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{dequantize, quantize, QuantizedTensor};
    use proptest::prelude::*;

    #[test]
    fn cache_append_and_slice() {
        let (h, p) = (64, KV_PAGE_TOKENS);
        let mut c = KvCache::new(2, h, 2 * p);
        assert!(c.is_empty());
        let k1 = Tensor::from_vec([2, h], vec![1.0; 2 * h]);
        let v1 = Tensor::from_vec([2, h], vec![2.0; 2 * h]);
        c.append(&k1, &v1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.keys(0), vec![1.0; h]);
        assert_eq!(c.values(1), vec![2.0; h]);
        // A rank-3 append of a page's worth of positions spills into a
        // second page; reading back joins the pages in position order.
        let k2 = Tensor::from_vec([2, p, h], vec![3.0; 2 * p * h]);
        c.append(&k2, &k2);
        assert_eq!(c.len(), p + 1);
        assert_eq!(c.keys(0)[h..], vec![3.0; p * h]);
        assert_eq!(c.bytes(), 2 * 2 * (p + 1) * h * 4);
    }

    #[test]
    fn quantized_rows_pad_to_whole_groups() {
        // Groups of 5 over rows of 12: each row takes three groups, 15
        // nibbles, so every other int4 row starts mid-byte. Each row,
        // once the next append has quantised it, reads back as that row
        // quantised alone.
        let (h, n) = (12, KV_PAGE_TOKENS + 3);
        let config = QuantConfig {
            bits: 4,
            group_size: 5,
        };
        let mut c = KvCache::new_quantized(1, h, n, config);
        let rows: Vec<Tensor> = (0..n as u64)
            .map(|i| Tensor::randn([1, h], 1.0, i))
            .collect();
        for row in &rows {
            c.append(row, row);
        }
        let keys = c.keys(0);
        for (r, row) in rows.iter().enumerate() {
            let expected = if r + 1 < n {
                dequantize(&quantize(row, config))
            } else {
                row.clone()
            };
            assert_eq!(expected.data(), &keys[r * h..(r + 1) * h], "row {r}");
        }
    }

    /// The store and decode body this module had before pages, copied
    /// verbatim as the reference the paged store must equal bit for bit:
    /// one `[batch, capacity, hidden]` slab, quantised KV as one chunk per
    /// append, and a `scores` vector per (batch, head).
    struct Slab {
        batch: usize,
        hidden: usize,
        capacity: usize,
        len: usize,
        k: Vec<f32>,
        v: Vec<f32>,
    }

    impl Slab {
        fn new(batch: usize, hidden: usize, capacity: usize) -> Self {
            Slab {
                batch,
                hidden,
                capacity,
                len: 0,
                k: vec![0.0; batch * capacity * hidden],
                v: vec![0.0; batch * capacity * hidden],
            }
        }

        fn append(&mut self, k_new: &Tensor, v_new: &Tensor) {
            let (b, t, h) = match k_new.rank() {
                2 => (k_new.dim(0), 1, k_new.dim(1)),
                3 => (k_new.dim(0), k_new.dim(1), k_new.dim(2)),
                r => panic!("KvCache::append expects rank 2 or 3, got {r}"),
            };
            for bi in 0..b {
                let dst0 = (bi * self.capacity + self.len) * h;
                let src0 = bi * t * h;
                self.k[dst0..dst0 + t * h].copy_from_slice(&k_new.data()[src0..src0 + t * h]);
                self.v[dst0..dst0 + t * h].copy_from_slice(&v_new.data()[src0..src0 + t * h]);
            }
            self.len += t;
        }

        fn keys(&self, b: usize) -> &[f32] {
            let start = b * self.capacity * self.hidden;
            &self.k[start..start + self.len * self.hidden]
        }

        fn values(&self, b: usize) -> &[f32] {
            let start = b * self.capacity * self.hidden;
            &self.v[start..start + self.len * self.hidden]
        }
    }

    fn slab_mha_decode(q: &Tensor, cache: &Slab, num_heads: usize) -> Tensor {
        let batch = q.dim(0);
        let hidden = q.dim(1);
        assert_eq!(batch, cache.batch, "batch mismatch");
        let hd = hidden / num_heads;
        let seq = cache.len;
        let scale = 1.0 / (hd as f32).sqrt();

        let mut out = vec![0.0f32; batch * hidden];
        out.chunks_mut(hd).enumerate().for_each(|(idx, out_head)| {
            let b = idx / num_heads;
            let h = idx % num_heads;
            let q_head = &q.data()[b * hidden + h * hd..b * hidden + (h + 1) * hd];
            let keys = cache.keys(b);
            let values = cache.values(b);
            let mut scores = vec![0.0f32; seq];
            for (t, s) in scores.iter_mut().enumerate() {
                let k_head = &keys[t * hidden + h * hd..t * hidden + (h + 1) * hd];
                *s = dot(q_head, k_head) * scale;
            }
            softmax_slice(&mut scores);
            for (t, &w) in scores.iter().enumerate() {
                let v_head = &values[t * hidden + h * hd..t * hidden + (h + 1) * hd];
                for (o, &v) in out_head.iter_mut().zip(v_head) {
                    *o += w * v;
                }
            }
        });

        Tensor::from_vec([batch, hidden], out)
    }

    /// The old quantised store: one quantised chunk per append. Each
    /// decode step materialised a full slab from every chunk, appended the
    /// new rows to it at f32, attended, and only then quantised those rows
    /// as the next chunk.
    struct Chunked {
        batch: usize,
        hidden: usize,
        capacity: usize,
        config: QuantConfig,
        k_chunks: Vec<QuantizedTensor>,
        v_chunks: Vec<QuantizedTensor>,
    }

    impl Chunked {
        fn append(&mut self, k: &Tensor, v: &Tensor) {
            self.k_chunks.push(quantize(k, self.config));
            self.v_chunks.push(quantize(v, self.config));
        }

        fn materialize(&self) -> Slab {
            let mut full = Slab::new(self.batch, self.hidden, self.capacity);
            for (kq, vq) in self.k_chunks.iter().zip(&self.v_chunks) {
                full.append(&dequantize(kq), &dequantize(vq));
            }
            full
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One multi-position append, then single positions up to `len`:
        /// after every append the paged `mha_decode` — f32, int8 or int4 —
        /// equals the slab reference in the old order (earlier chunks
        /// dequantised, the new rows at f32) bit for bit, and so do the
        /// stored rows.
        #[test]
        fn prop_paged_decode_equals_the_slab_reference(
            quant in prop_oneof![
                Just(None),
                Just(Some(QuantConfig::int8())),
                Just(Some(QuantConfig::int4())),
            ],
            len in 1usize..=3 * KV_PAGE_TOKENS + 1,
            first in 1usize..=3 * KV_PAGE_TOKENS + 1,
            batch in 1usize..=4,
            heads in prop_oneof![Just(1usize), Just(2), Just(4)],
            hidden in prop_oneof![Just(64usize), Just(128)],
            seed in 0u64..1000,
        ) {
            let first = first.min(len);
            let mut paged = match quant {
                None => KvCache::new(batch, hidden, len),
                Some(config) => KvCache::new_quantized(batch, hidden, len, config),
            };
            let mut slab = Slab::new(batch, hidden, len);
            let mut chunked = quant.map(|config| Chunked {
                batch,
                hidden,
                capacity: len,
                config,
                k_chunks: Vec::new(),
                v_chunks: Vec::new(),
            });
            let mut t = first;
            let mut step = 0u64;
            while paged.len() < len {
                let shape = if t == 1 { vec![batch, hidden] } else { vec![batch, t, hidden] };
                let s = seed * 1000 + step * 3;
                let k = Tensor::randn(&shape[..], 1.0, s);
                let v = Tensor::randn(&shape[..], 1.0, s + 1);
                paged.append(&k, &v);
                if let Some(c) = &mut chunked {
                    slab = c.materialize();
                    c.append(&k, &v);
                }
                slab.append(&k, &v);
                let q = Tensor::randn([batch, hidden], 1.0, s + 2);
                prop_assert_eq!(
                    bits(&mha_decode(&q, &paged, heads)),
                    bits(&slab_mha_decode(&q, &slab, heads)),
                    "len {} quant {:?}", paged.len(), quant
                );
                for b in 0..batch {
                    prop_assert_eq!(paged.keys(b), slab.keys(b).to_vec());
                    prop_assert_eq!(paged.values(b), slab.values(b).to_vec());
                }
                prop_assert_eq!(
                    paged.bytes(),
                    chunked.as_ref().map_or(2 * batch * paged.len() * hidden * 4, |c| {
                        c.k_chunks.iter().chain(&c.v_chunks).map(QuantizedTensor::bytes).sum()
                    })
                );
                (t, step) = (1, step + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "KV cache overflow")]
    fn cache_overflow_detected() {
        let mut c = KvCache::new(1, 2, 1);
        let t = Tensor::zeros([1, 2]);
        c.append(&t, &t);
        c.append(&t, &t);
    }

    #[test]
    #[should_panic(expected = "the new rows must be in the cache")]
    fn attend_needs_its_rows_in_the_cache() {
        let mut c = KvCache::new(1, 4, 4);
        let t = Tensor::zeros([1, 2, 4]);
        c.append(&Tensor::zeros([1, 4]), &Tensor::zeros([1, 4]));
        attend(&t, &c, 1);
    }

    #[test]
    fn attend_onto_earlier_rows_equals_feeding_them_one_at_a_time() {
        // `t` rows appended and attended at once onto `earlier` cached
        // positions equal the same rows appended and attended one by one,
        // bit for bit, across page boundaries.
        let shapes = [(1, 1, 1, 1), (1, 12, 8, 4), (2, 13, 20, 2), (3, 16, 17, 4)];
        for (batch, earlier, t, heads) in shapes {
            let (h, len) = (16, earlier + t);
            let rows = |seed| Tensor::randn([batch, earlier, h], 1.0, seed);
            let [q, k, v] = [1, 2, 3].map(|s| Tensor::randn([batch, t, h], 1.0, s));
            let mut chunked = KvCache::new(batch, h, len);
            chunked.append(&rows(4), &rows(5));
            let mut single = chunked.clone();
            chunked.append(&k, &v);
            let at_once = attend(&q, &chunked, heads);
            let row = |x: &Tensor, i: usize| {
                let rows = (0..batch).flat_map(|b| x.data()[(b * t + i) * h..][..h].to_vec());
                Tensor::from_vec([batch, h], rows.collect())
            };
            for i in 0..t {
                single.append(&row(&k, i), &row(&v, i));
                let one = attend(&row(&q, i), &single, heads);
                assert_eq!(bits(&one), bits(&row(&at_once, i)), "{batch}x{earlier}+{t} row {i}");
            }
        }
    }

    /// `mha_prefill` before it became `attend` over a fresh cache, copied
    /// verbatim: one `scores` vector per (batch, head) over the new `k`/`v`.
    fn per_head_prefill(q: &Tensor, k: &Tensor, v: &Tensor, num_heads: usize) -> Tensor {
        let (batch, s, hidden) = (q.dim(0), q.dim(1), q.dim(2));
        let hd = hidden / num_heads;
        let scale = 1.0 / (hd as f32).sqrt();
        let head_of = |t: &Tensor, b: usize, i: usize, h: usize| {
            let base = (b * s + i) * hidden + h * hd;
            t.data()[base..base + hd].to_vec()
        };
        let mut out = vec![0.0f32; batch * s * hidden];
        for (b, h) in (0..batch).flat_map(|b| (0..num_heads).map(move |h| (b, h))) {
            let mut scores = vec![0.0f32; s];
            for i in 0..s {
                let q_i = head_of(q, b, i, h);
                for (t, sc) in scores[..=i].iter_mut().enumerate() {
                    *sc = dot(&q_i, &head_of(k, b, t, h)) * scale;
                }
                softmax_slice(&mut scores[..=i]);
                let out_i = &mut out[(b * s + i) * hidden + h * hd..][..hd];
                for (t, &w) in scores[..=i].iter().enumerate() {
                    for (o, &vv) in out_i.iter_mut().zip(&head_of(v, b, t, h)) {
                        *o += w * vv;
                    }
                }
            }
        }
        Tensor::from_vec([batch, s, hidden], out)
    }

    #[test]
    fn prefill_equals_the_per_head_reference() {
        // A prompt attended onto an empty cache, f32 or int4, equals the
        // old per-(batch, head) body bit for bit: its rows are all fresh,
        // so none is dequantised.
        for (batch, s) in [(1, 1), (1, 17), (2, 33), (1, 330), (3, 5)] {
            let (h, heads) = (64, 4);
            let seed = |i: u64| i * 100 + s as u64;
            let [q, k, v] = [1, 2, 3].map(|i| Tensor::randn([batch, s, h], 1.0, seed(i)));
            let expected = bits(&per_head_prefill(&q, &k, &v, heads));
            assert_eq!(bits(&mha_prefill(&q, &k, &v, heads)), expected, "{batch}x{s}");
            let mut int4 = KvCache::new_quantized(batch, h, s, QuantConfig::int4());
            int4.append(&k, &v);
            assert_eq!(bits(&attend(&q, &int4, heads)), expected, "{batch}x{s} int4");
        }
    }

    #[test]
    fn decode_with_single_entry_returns_value() {
        // With one cached position the softmax is a singleton → output = V.
        let mut c = KvCache::new(1, 8, 4);
        let k = Tensor::randn([1, 8], 1.0, 1);
        let v = Tensor::randn([1, 8], 1.0, 2);
        c.append(&k, &v);
        let q = Tensor::randn([1, 8], 1.0, 3);
        let out = mha_decode(&q, &c, 2);
        assert!(out.allclose(&v, 1e-6));
    }

    #[test]
    fn decode_uniform_keys_average_values() {
        // Identical keys → uniform attention → output = mean of values.
        let mut c = KvCache::new(1, 4, 4);
        let k = Tensor::full([1, 4], 1.0);
        for val in [0.0f32, 2.0] {
            c.append(&k, &Tensor::full([1, 4], val));
        }
        let q = Tensor::full([1, 4], 0.5);
        let out = mha_decode(&q, &c, 1);
        assert!(out.allclose(&Tensor::full([1, 4], 1.0), 1e-5));
    }

    #[test]
    fn prefill_last_token_matches_decode() {
        // The last prefill position attends to all s positions — the same
        // computation as a decode step with the full cache.
        let (b, s, h, heads) = (2, 5, 16, 4);
        let q = Tensor::randn([b, s, h], 1.0, 10);
        let k = Tensor::randn([b, s, h], 1.0, 11);
        let v = Tensor::randn([b, s, h], 1.0, 12);
        let pre = mha_prefill(&q, &k, &v, heads);

        let mut cache = KvCache::new(b, h, s);
        cache.append(&k, &v);
        let q_last = {
            let mut data = Vec::with_capacity(b * h);
            for bi in 0..b {
                data.extend_from_slice(&q.data()[(bi * s + (s - 1)) * h..(bi * s + s) * h]);
            }
            Tensor::from_vec([b, h], data)
        };
        let dec = mha_decode(&q_last, &cache, heads);
        for bi in 0..b {
            let pre_last = &pre.data()[(bi * s + (s - 1)) * h..(bi * s + s) * h];
            let dec_row = dec.row(bi);
            for (a, c) in pre_last.iter().zip(dec_row) {
                assert!((a - c).abs() < 1e-5, "{a} vs {c}");
            }
        }
    }

    #[test]
    fn prefill_is_causal() {
        // Changing a later K/V position must not affect earlier outputs.
        let (b, s, h, heads) = (1, 4, 8, 2);
        let q = Tensor::randn([b, s, h], 1.0, 20);
        let k = Tensor::randn([b, s, h], 1.0, 21);
        let v = Tensor::randn([b, s, h], 1.0, 22);
        let base = mha_prefill(&q, &k, &v, heads);

        let mut k2 = k.clone();
        let mut v2 = v.clone();
        // Perturb the final position only.
        for j in 0..h {
            *k2.at_mut(&[0, s - 1, j]) += 5.0;
            *v2.at_mut(&[0, s - 1, j]) -= 3.0;
        }
        let pert = mha_prefill(&q, &k2, &v2, heads);
        for i in 0..s - 1 {
            for j in 0..h {
                assert_eq!(base.at(&[0, i, j]), pert.at(&[0, i, j]), "pos {i} changed");
            }
        }
    }
}
