//! # lm-kvpool
//!
//! A block-granular paged KV allocator with cross-request prefix
//! sharing (DESIGN.md §9.3). Instead of leasing one contiguous
//! worst-case slab per sequence, KV residency is split into fixed-size
//! *pages* of `page_tokens` tokens each:
//!
//! - a **free-list pool** ([`PagedKvPool`]) hands out pages backed by
//!   byte-accounted [`MemPool`] leases, so page accounting and byte
//!   accounting are provably the same number;
//! - each sequence holds a **page table** ([`SeqKv`]) mapping its
//!   logical token positions to physical pages, grown one page at a
//!   time as tokens are appended;
//! - a **prefix index** (a radix tree flattened to aligned-prefix keys)
//!   lets a request whose prompt shares a prefix with a resident
//!   sequence map the *same physical pages* instead of recomputing and
//!   re-storing them;
//! - shared pages are **full, immutable prompt pages**: only a whole
//!   page of a known prefix is ever mapped by more than one sequence,
//!   and no sequence writes it again. A sequence's open tail page and
//!   every growth page are private, so appends write in place and
//!   sharing never has to copy anything.
//!
//! Pages store their actual token content. That is deliberate: it is
//! what makes sharing *checkable* — the property suite asserts that a
//! sequence's logical token stream survives any interleaving of
//! sharing and freeing, and that a page mapped by two sequences is full
//! and never changes while shared.
//!
//! Determinism contract: the allocator has no clocks, no RNG and no
//! hash-order dependence (the index is a `BTreeMap`); page ids are
//! recycled LIFO from the free list. Given the same call sequence it
//! returns the same pages, which is what lets the serve scheduler stay
//! byte-identical across runs.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use lm_engine::{Lease, MemPool, PoolExhausted};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Page geometry: how many tokens one physical page covers and what a
/// token of KV costs across all layers. Derived from the model config
/// by the admission planner (`page_bytes = page_tokens ·
/// bytes_per_token` is the `LMA280` invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageConfig {
    /// Tokens per page. Serve plans use the engine's `KV_PAGE_TOKENS`,
    /// so a pool page covers the positions of one engine KV page.
    pub page_tokens: usize,
    /// KV bytes one token occupies across every layer (2 · hidden ·
    /// dtype bytes · layers).
    pub bytes_per_token: usize,
}

impl PageConfig {
    /// Bytes one physical page charges to the backing [`MemPool`].
    pub fn page_bytes(&self) -> usize {
        self.page_tokens * self.bytes_per_token
    }

    /// Pages needed to hold `tokens` logical tokens.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens.max(1))
    }
}

/// A paged-KV protocol violation: the caller broke the admit/append
/// contract (appending past the admitted capacity, or drawing from an
/// exhausted growth reserve). These were panics before the
/// `expect_used` deny; as typed errors the serve scheduler can surface
/// them as request failures instead of bringing the process down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvProtocolError {
    /// `append` called on a sequence already at its admitted capacity.
    AppendPastCapacity {
        /// Tokens already written.
        len: usize,
        /// Tokens the admission reserved for.
        capacity_tokens: usize,
    },
    /// The growth reserve was empty where the admission contract says a
    /// fresh growth page must be banked.
    ReserveExhausted {
        /// Tokens already written when the draw failed.
        len: usize,
    },
}

impl std::fmt::Display for KvProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvProtocolError::AppendPastCapacity { len, capacity_tokens } => write!(
                f,
                "append past reserved capacity: {len} tokens written of {capacity_tokens} admitted"
            ),
            KvProtocolError::ReserveExhausted { len } => write!(
                f,
                "growth reserve empty at token {len}; admission should have banked this page"
            ),
        }
    }
}

impl std::error::Error for KvProtocolError {}

/// Cumulative allocator counters, exposed for `results/serve.json` and
/// the paging probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PagingStats {
    /// Physical pages allocated from the free list / `MemPool`.
    pub pages_allocated: u64,
    /// Physical pages returned (refcount reached zero).
    pub pages_freed: u64,
    /// Page mappings served from the prefix index instead of a fresh
    /// allocation — each one is a whole page of prefill skipped.
    pub shared_hits: u64,
    /// Prompt tokens covered by shared mappings at admission — always
    /// `shared_hits · page_tokens`, since only full pages are shared.
    pub shared_tokens: u64,
}

/// Point-in-time pool state for invariant checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolCounters {
    /// Capacity of the backing pool, in whole pages.
    pub pages_total: u64,
    /// Pages currently holding a `MemPool` lease.
    pub pages_in_use: u64,
    /// High-water mark of `pages_in_use`.
    pub pages_peak: u64,
    /// Sum of per-page refcounts (must equal the sum of live page-table
    /// mappings: refcount conservation).
    pub refcount_sum: u64,
}

struct PageState {
    refs: u32,
    /// Actual token content; append-only, and only while private.
    content: Vec<u32>,
    /// The byte lease this page charges while alive.
    lease: Option<Lease>,
    /// Aligned-prefix key registered in the full-page index.
    full_key: Option<Vec<u32>>,
}

impl PageState {
    fn empty() -> Self {
        PageState {
            refs: 0,
            content: Vec::new(),
            lease: None,
            full_key: None,
        }
    }
}

struct PoolInner {
    pages: Vec<PageState>,
    /// Recycled page ids, popped LIFO — deterministic reuse order.
    free: Vec<usize>,
    /// Radix/prefix tree flattened to keys: the page-aligned token
    /// prefix `known[..k·page_tokens]` maps to the physical page
    /// holding chunk `k-1`. Keys are prefix-closed (registering chunk
    /// `k` implies chunks `1..k` are registered), which is what makes
    /// the longest-match walk below correct.
    full_index: BTreeMap<Vec<u32>, usize>,
    in_use: usize,
    peak: usize,
    stats: PagingStats,
}

/// The paged KV pool. Every physical page is backed by a
/// `page_bytes`-sized RAII lease from the wrapped [`MemPool`], so the
/// pool's page accounting and the byte pool's accounting can be checked
/// against each other at any moment ([`PagedKvPool::accounting_balanced`]).
pub struct PagedKvPool {
    mem: Arc<MemPool>,
    cfg: PageConfig,
    inner: Mutex<PoolInner>,
}

impl PagedKvPool {
    pub fn new(mem: Arc<MemPool>, cfg: PageConfig) -> Arc<Self> {
        assert!(cfg.page_tokens > 0, "page_tokens must be positive");
        assert!(cfg.bytes_per_token > 0, "bytes_per_token must be positive");
        Arc::new(PagedKvPool {
            mem,
            cfg,
            inner: Mutex::new(PoolInner {
                pages: Vec::new(),
                free: Vec::new(),
                full_index: BTreeMap::new(),
                in_use: 0,
                peak: 0,
                stats: PagingStats::default(),
            }),
        })
    }

    pub fn cfg(&self) -> PageConfig {
        self.cfg
    }

    /// Capacity of the backing byte pool, in whole pages.
    pub fn capacity_pages(&self) -> usize {
        self.mem.capacity() / self.cfg.page_bytes().max(1)
    }

    /// Pages a sequence of `known_tokens + gen_len` tokens maps in full
    /// (shared and private) — its residency when nothing is shared.
    pub fn required_pages(&self, known_tokens: usize, gen_len: usize) -> usize {
        self.cfg.pages_for(known_tokens + gen_len)
    }

    pub fn pages_in_use(&self) -> usize {
        self.inner.lock().in_use
    }

    pub fn peak_pages(&self) -> usize {
        self.inner.lock().peak
    }

    pub fn stats(&self) -> PagingStats {
        self.inner.lock().stats
    }

    pub fn counters(&self) -> PoolCounters {
        let inner = self.inner.lock();
        PoolCounters {
            pages_total: self.capacity_pages() as u64,
            pages_in_use: inner.in_use as u64,
            pages_peak: inner.peak as u64,
            refcount_sum: inner.pages.iter().map(|p| p.refs as u64).sum(),
        }
    }

    /// The free-list-vs-byte-pool consistency invariant: every page in
    /// use holds exactly one `page_bytes` lease, so the backing pool's
    /// byte accounting must be exactly `in_use · page_bytes`.
    pub fn accounting_balanced(&self) -> bool {
        self.pages_in_use() * self.cfg.page_bytes() == self.mem.used()
    }

    /// Admit a sequence whose first `known.len()` tokens are known up
    /// front (prompt, plus any resumed generated prefix) and which will
    /// append at most `gen_len` more.
    ///
    /// Walks the prefix index for the longest shared prefix of whole
    /// pages and maps those refcounted instead of allocating them. That
    /// is the one sharing rule: only full prompt pages are shared, and a
    /// shared page is never written again. Every other page the sequence
    /// can come to own — `pages_for(known + gen_len)` minus the shared
    /// ones — is private and reserved eagerly: the unshared full chunks
    /// are laid and registered in the index, the open tail stays
    /// unregistered, and the rest is banked as the growth reserve, so
    /// appends can never run out of memory mid-decode. Atomic: on
    /// exhaustion nothing is mapped and nothing stays allocated.
    pub fn admit(
        self: &Arc<Self>,
        known: &[u32],
        gen_len: usize,
    ) -> Result<SeqKv, PoolExhausted> {
        let page = self.cfg.page_tokens;
        let total_pages = self.cfg.pages_for(known.len() + gen_len);
        let mut inner = self.inner.lock();

        // Longest-prefix walk over full pages (keys are prefix-closed,
        // so the first miss ends the match).
        let mut shared: Vec<usize> = Vec::new();
        for k in 1..=known.len() / page {
            match inner.full_index.get(&known[..k * page]) {
                Some(&pid) => shared.push(pid),
                None => break,
            }
        }
        let private_needed = total_pages - shared.len();

        // Allocate every private page up front; roll back on failure.
        let mut fresh: Vec<usize> = Vec::with_capacity(private_needed);
        for _ in 0..private_needed {
            match self.mem.alloc(self.cfg.page_bytes()) {
                Ok(lease) => {
                    let pid = inner.free.pop().unwrap_or_else(|| {
                        inner.pages.push(PageState::empty());
                        inner.pages.len() - 1
                    });
                    let slot = &mut inner.pages[pid];
                    slot.refs = 1;
                    slot.lease = Some(lease);
                    slot.content.clear();
                    inner.in_use += 1;
                    inner.stats.pages_allocated += 1;
                    fresh.push(pid);
                }
                Err(e) => {
                    for pid in fresh {
                        Self::release_locked(&mut inner, pid);
                    }
                    return Err(e);
                }
            }
        }
        inner.peak = inner.peak.max(inner.in_use);

        // Commit: map shared pages (refcount++), lay the rest of the
        // known tokens into fresh pages — full chunks registered, the
        // open tail private — and bank what is left as the reserve.
        // `pages_for(known) <= pages_for(known + gen_len)`, so the split
        // point is within `fresh` by construction.
        let mut pages: Vec<usize> = Vec::with_capacity(total_pages);
        for &pid in &shared {
            inner.pages[pid].refs += 1;
            inner.stats.shared_hits += 1;
            pages.push(pid);
        }
        let reserve = fresh.split_off(self.cfg.pages_for(known.len()) - shared.len());
        for (k, pid) in (shared.len()..).zip(fresh) {
            let end = ((k + 1) * page).min(known.len());
            inner.pages[pid].content.extend_from_slice(&known[k * page..end]);
            if end == (k + 1) * page {
                let key = known[..end].to_vec();
                inner.pages[pid].full_key = Some(key.clone());
                inner.full_index.insert(key, pid);
            }
            pages.push(pid);
        }
        let shared_tokens = shared.len() * page;
        inner.stats.shared_tokens += shared_tokens as u64;
        drop(inner);

        Ok(SeqKv {
            pool: Arc::clone(self),
            pages,
            reserve,
            len: known.len(),
            shared_tokens,
            capacity_tokens: known.len() + gen_len,
        })
    }

    /// Drop one reference to `pid`; at zero the page is unregistered
    /// from the index, its lease drops, and its id returns to the
    /// free list.
    fn release_locked(inner: &mut PoolInner, pid: usize) {
        let page = &mut inner.pages[pid];
        debug_assert!(page.refs > 0, "release of unreferenced page {pid}");
        page.refs -= 1;
        if page.refs == 0 {
            if let Some(key) = page.full_key.take() {
                inner.full_index.remove(&key);
            }
            let page = &mut inner.pages[pid];
            page.lease = None; // lease drop returns the bytes
            page.content.clear();
            inner.in_use -= 1;
            inner.stats.pages_freed += 1;
            inner.free.push(pid);
        }
    }
}

impl std::fmt::Debug for PagedKvPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("PagedKvPool")
            .field("cfg", &self.cfg)
            .field("counters", &c)
            .finish()
    }
}

/// One sequence's page table: an RAII handle over its mapped pages and
/// growth reserve. Dropping it releases every reference; pages whose
/// refcount reaches zero return to the free list.
pub struct SeqKv {
    pool: Arc<PagedKvPool>,
    /// Physical pages in logical order; `pages[i]` covers tokens
    /// `[i·page_tokens, (i+1)·page_tokens)`.
    pages: Vec<usize>,
    /// Pre-allocated private pages appends draw from.
    reserve: Vec<usize>,
    /// Logical tokens written.
    len: usize,
    /// Prefix tokens mapped from the index at admission — prefill the
    /// scheduler does not have to re-pay.
    shared_tokens: usize,
    capacity_tokens: usize,
}

impl SeqKv {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn capacity_tokens(&self) -> usize {
        self.capacity_tokens
    }

    pub fn shared_tokens(&self) -> usize {
        self.shared_tokens
    }

    /// Pages this sequence currently references (mapped + reserve) —
    /// the page-table side of refcount conservation.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len() + self.reserve.len()
    }

    /// Physical ids of every referenced page, mapped first.
    pub fn page_ids(&self) -> Vec<usize> {
        self.pages.iter().chain(self.reserve.iter()).copied().collect()
    }

    /// Append one generated token: onto a fresh page from the reserve
    /// at a page boundary, otherwise in place at the end of this
    /// sequence's own last page — its open tail or an earlier growth
    /// page, private by construction since only full prompt pages are
    /// shared. The admission reservation covers every page this
    /// sequence can come to own, so under the protocol this cannot
    /// fail; a broken caller (appending past capacity, or a
    /// reservation-arithmetic regression draining the reserve) gets a
    /// typed [`KvProtocolError`] instead of a panic, with the pool left
    /// untouched.
    pub fn append(&mut self, token: u32) -> Result<(), KvProtocolError> {
        if self.len >= self.capacity_tokens {
            return Err(KvProtocolError::AppendPastCapacity {
                len: self.len,
                capacity_tokens: self.capacity_tokens,
            });
        }
        let page = self.pool.cfg.page_tokens;
        let mut inner = self.pool.inner.lock();
        let pid = if self.len.is_multiple_of(page) {
            let Some(pid) = self.reserve.pop() else {
                return Err(KvProtocolError::ReserveExhausted { len: self.len });
            };
            debug_assert!(self.len / page == self.pages.len());
            self.pages.push(pid);
            pid
        } else {
            self.pages[self.pages.len() - 1]
        };
        debug_assert_eq!(inner.pages[pid].refs, 1, "append into shared page {pid}");
        inner.pages[pid].content.push(token);
        self.len += 1;
        Ok(())
    }

    /// Reconstruct the logical token stream from the page table. The
    /// property suite's ground truth: sharing must never change what a
    /// sequence reads back.
    pub fn tokens(&self) -> Vec<u32> {
        let page = self.pool.cfg.page_tokens;
        let inner = self.pool.inner.lock();
        let mut out = Vec::with_capacity(self.len);
        for (i, &pid) in self.pages.iter().enumerate() {
            let take = (self.len - i * page).min(page);
            out.extend_from_slice(&inner.pages[pid].content[..take]);
        }
        out
    }
}

impl std::fmt::Debug for SeqKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqKv")
            .field("len", &self.len)
            .field("capacity_tokens", &self.capacity_tokens)
            .field("shared_tokens", &self.shared_tokens)
            .field("pages", &self.pages)
            .field("reserve", &self.reserve)
            .finish()
    }
}

impl Drop for SeqKv {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock();
        for &pid in self.pages.iter().chain(self.reserve.iter()) {
            PagedKvPool::release_locked(&mut inner, pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(pages: usize) -> Arc<PagedKvPool> {
        let cfg = PageConfig {
            page_tokens: 4,
            bytes_per_token: 8,
        };
        let mem = MemPool::new("test.kv", pages * cfg.page_bytes());
        PagedKvPool::new(mem, cfg)
    }

    #[test]
    fn solo_sequence_allocates_exact_pages_and_reads_back() {
        let p = pool(16);
        let prompt: Vec<u32> = (0..10).collect();
        let mut seq = p.admit(&prompt, 6).unwrap();
        // ceil(16 / 4) = 4 pages: 2 full prompt, 1 open tail, 1 growth.
        assert_eq!(p.pages_in_use(), 4);
        assert_eq!(seq.shared_tokens(), 0);
        for t in 100..106 {
            seq.append(t).unwrap();
        }
        assert_eq!(
            seq.tokens(),
            prompt.iter().copied().chain(100..106).collect::<Vec<_>>()
        );
        assert!(p.accounting_balanced());
        drop(seq);
        assert_eq!(p.pages_in_use(), 0);
        assert!(p.accounting_balanced());
    }

    /// Physical ids both sequences reference.
    fn common(a: &SeqKv, b: &SeqKv) -> Vec<usize> {
        let theirs = b.page_ids();
        a.page_ids().into_iter().filter(|id| theirs.contains(id)).collect()
    }

    #[test]
    fn identical_prompts_share_only_full_pages() {
        let p = pool(32);
        let prompt: Vec<u32> = (0..10).collect();
        let a = p.admit(&prompt, 4).unwrap();
        let before = p.pages_in_use();
        let b = p.admit(&prompt, 4).unwrap();
        // b maps the 2 full pages and owns the rest: required 4 minus 2.
        assert_eq!(p.pages_in_use(), before + 2);
        assert_eq!(b.shared_tokens(), 8);
        assert_eq!(a.tokens(), b.tokens());
        assert_eq!(common(&a, &b), a.page_ids()[..2], "only the full pages");
        assert_ne!(a.page_ids()[2], b.page_ids()[2], "tails stay private");
    }

    #[test]
    fn identical_prompts_append_to_private_tails() {
        let p = pool(32);
        let prompt: Vec<u32> = (0..6).collect(); // 1 full page + tail fill 2
        let mut a = p.admit(&prompt, 4).unwrap();
        let mut b = p.admit(&prompt, 4).unwrap();
        let shared = common(&a, &b);
        assert_eq!(shared, [a.page_ids()[0]]);
        let in_use = p.pages_in_use();
        // Both write in place into their own tails...
        a.append(77).unwrap();
        b.append(88).unwrap();
        assert_eq!(p.pages_in_use(), in_use);
        // ...and on into growth pages; the shared page is never written.
        for t in 1..4 {
            a.append(77 + t).unwrap();
            b.append(88 + t).unwrap();
        }
        assert_eq!(common(&a, &b), shared);
        let want = |first: u32| prompt.iter().copied().chain(first..first + 4).collect::<Vec<_>>();
        assert_eq!(a.tokens(), want(77));
        assert_eq!(b.tokens(), want(88));
        assert!(p.accounting_balanced());
    }

    #[test]
    fn prefix_only_sharing_maps_aligned_pages() {
        let p = pool(32);
        let mut sys: Vec<u32> = (0..8).collect(); // 2 aligned pages
        let a = p.admit(&{
            let mut v = sys.clone();
            v.extend([50, 51]);
            v
        }, 2)
        .unwrap();
        sys.extend([60, 61, 62]);
        let b = p.admit(&sys, 2).unwrap();
        assert_eq!(b.shared_tokens(), 8, "only the aligned prefix shares");
        assert_eq!(common(&a, &b).len(), 2);
    }

    #[test]
    fn exhaustion_rolls_back_atomically() {
        let p = pool(3);
        let a = p.admit(&[1, 2, 3, 4, 5], 2).unwrap(); // 2 pages
        let err = p.admit(&[9, 9, 9, 9, 9, 9], 4).unwrap_err(); // needs 3
        assert!(err.requested > 0);
        assert_eq!(p.pages_in_use(), 2, "failed admit must leave nothing");
        assert!(p.accounting_balanced());
        drop(a);
        assert_eq!(p.pages_in_use(), 0);
    }

    #[test]
    fn freed_prefix_pages_unregister_and_recycle() {
        let p = pool(8);
        let prompt: Vec<u32> = (0..8).collect();
        let a = p.admit(&prompt, 0).unwrap();
        drop(a);
        assert_eq!(p.pages_in_use(), 0);
        // Re-admission after the owner died cannot share freed pages.
        let b = p.admit(&prompt, 0).unwrap();
        assert_eq!(b.shared_tokens(), 0);
        assert_eq!(p.stats().pages_freed, 2);
    }

    #[test]
    fn refcounts_balance_against_page_tables() {
        let p = pool(32);
        let prompt: Vec<u32> = (0..12).collect();
        let a = p.admit(&prompt, 4).unwrap();
        let b = p.admit(&prompt, 8).unwrap();
        let c = p.admit(&prompt[..4], 4).unwrap();
        let mapped = (a.mapped_pages() + b.mapped_pages() + c.mapped_pages()) as u64;
        assert_eq!(p.counters().refcount_sum, mapped);
        drop(b);
        let mapped = (a.mapped_pages() + c.mapped_pages()) as u64;
        assert_eq!(p.counters().refcount_sum, mapped);
        drop(a);
        drop(c);
        assert_eq!(p.counters().refcount_sum, 0);
        assert_eq!(p.pages_in_use(), 0);
    }
}
