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
//! - shared pages are **refcounted copy-on-write**: a page mapped by
//!   more than one sequence is read-only, and the first divergent
//!   write forks it — the writer copies the shared prefix of the page
//!   into a private page and remaps, leaving every other reader intact.
//!
//! Pages store their actual token content. That is deliberate: it is
//! what makes sharing *checkable* — the property suite asserts that a
//! sequence's logical token stream survives any interleaving of
//! sharing, forking and freeing, which would catch a write-through to
//! a shared page immediately.
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
    /// Tokens per page. Must divide the plan's KV block (slot context).
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
    /// page must be banked (fresh growth page, COW fork target, or the
    /// collapsed-fork spare).
    ReserveExhausted {
        /// Tokens already written when the draw failed.
        len: usize,
        /// What the page was needed for.
        needed_for: &'static str,
    },
}

impl std::fmt::Display for KvProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvProtocolError::AppendPastCapacity { len, capacity_tokens } => write!(
                f,
                "append past reserved capacity: {len} tokens written of {capacity_tokens} admitted"
            ),
            KvProtocolError::ReserveExhausted { len, needed_for } => write!(
                f,
                "growth reserve empty at token {len} (needed for {needed_for}); \
                 admission should have banked this page"
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
    /// Prompt tokens covered by shared mappings at admission.
    pub shared_tokens: u64,
    /// Copy-on-write forks: first divergent write into a shared page.
    pub cow_forks: u64,
    /// Tokens copied by those forks (the only data movement sharing
    /// ever costs).
    pub copied_tokens: u64,
    /// In-place writes that landed on a page mapped by another
    /// sequence — the double-mapped-writable hazard `LMA282` trips on.
    /// The COW discipline makes this permanently zero; the counter is
    /// measured independently of the fork decision so a future
    /// regression in that decision fires the lint in every serve run.
    pub shared_write_violations: u64,
}

/// Point-in-time pool state for invariant checks and the `LMA28x`
/// paging probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolCounters {
    /// Capacity of the backing pool, in whole pages.
    pub pages_total: u64,
    /// Pages currently holding a `MemPool` lease.
    pub pages_in_use: u64,
    /// High-water mark of `pages_in_use`.
    pub pages_peak: u64,
    /// Sum of per-page refcounts (must equal the sum of live page-table
    /// mappings — `LMA281`).
    pub refcount_sum: u64,
}

struct PageState {
    refs: u32,
    /// Actual token content; append-only except COW truncation by a
    /// sole owner reclaiming a forked-away writer's tail.
    content: Vec<u32>,
    /// The byte lease this page charges while alive.
    lease: Option<Lease>,
    /// Aligned-prefix key registered in the full-page index.
    full_key: Option<Vec<u32>>,
    /// Exact-prefix key registered in the partial-tail index.
    partial_key: Option<Vec<u32>>,
}

impl PageState {
    fn empty() -> Self {
        PageState {
            refs: 0,
            content: Vec::new(),
            lease: None,
            full_key: None,
            partial_key: None,
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
    /// Exact known-prefix key → the open (partially filled) tail page,
    /// shareable only by a request with the *identical* prefix; the
    /// first divergent append forks it (COW).
    partial_index: BTreeMap<Vec<u32>, usize>,
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
                partial_index: BTreeMap::new(),
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

    /// Worst-case pages a sequence of `known_tokens + gen_len` tokens
    /// can come to own after full divergence (what admission must be
    /// able to satisfy even if every shared mapping forks).
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
    /// Walks the prefix index for the longest shared prefix: whole
    /// matching pages are mapped refcounted instead of allocated, and
    /// an exactly-matching open tail page is mapped copy-on-write.
    /// Everything the sequence could come to own after full divergence
    /// is reserved eagerly — `pages_for(known + gen_len)` minus the
    /// fully shared pages — so appends (including COW forks) can never
    /// run out of memory mid-decode. Atomic: on exhaustion nothing is
    /// mapped and nothing stays allocated.
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
        let full_chunks = known.len() / page;
        let mut shared_full: Vec<usize> = Vec::new();
        for k in 1..=full_chunks {
            match inner.full_index.get(&known[..k * page]) {
                Some(&pid) => shared_full.push(pid),
                None => break,
            }
        }
        // The open tail is shareable only when the entire known prefix
        // matches a registered one (same full pages, same partial
        // content) — anything less would alias divergent tokens.
        let tail_fill = known.len() % page;
        let shared_tail = (tail_fill > 0 && shared_full.len() == full_chunks)
            .then(|| inner.partial_index.get(known).copied())
            .flatten();

        // A shared tail still needs a private replacement on the first
        // append (the fork), so only gen_len == 0 lets it reduce the
        // reservation. The fork obligation rides with the *sharer*: the
        // page's creator reserved no fork page and never needs one — it
        // may write in place past the registered fill, because every
        // sharer's logical view stops at that fill and reads are sliced
        // by each sequence's own length.
        let pending_tail_fork = shared_tail.is_some() && gen_len > 0;
        let reserve_discount = usize::from(gen_len == 0 && shared_tail.is_some());
        let private_needed = total_pages - shared_full.len() - reserve_discount;
        // How the private pages will be spent, fixed up front so the
        // commit below can split `fresh` by construction instead of
        // drawing from an iterator that could (if the arithmetic ever
        // drifted) run dry mid-commit.
        let unshared_fulls = full_chunks - shared_full.len();
        let needs_private_tail = tail_fill > 0 && shared_tail.is_none();
        debug_assert!(unshared_fulls + usize::from(needs_private_tail) <= private_needed);

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

        // Commit: map shared pages (refcount++), lay the unshared part
        // of the prompt into fresh pages, and bank the rest as the
        // growth reserve.
        let mut pages: Vec<usize> = Vec::with_capacity(total_pages);
        for &pid in &shared_full {
            inner.pages[pid].refs += 1;
            inner.stats.shared_hits += 1;
            pages.push(pid);
        }
        let mut shared_tokens = shared_full.len() * page;
        // Partition the fresh pages: unshared full chunks, then the
        // optional private tail, then the growth reserve. The split
        // points are the counts fixed above, so every branch gets
        // exactly the pages its arithmetic claimed — no fallible draws.
        let reserve: Vec<usize> =
            fresh.split_off((unshared_fulls + usize::from(needs_private_tail)).min(fresh.len()));
        let private_tail = if needs_private_tail { fresh.pop() } else { None };
        for (k, pid) in (shared_full.len()..full_chunks).zip(fresh) {
            let chunk = &known[k * page..(k + 1) * page];
            inner.pages[pid].content.extend_from_slice(chunk);
            let key = known[..(k + 1) * page].to_vec();
            inner.pages[pid].full_key = Some(key.clone());
            inner.full_index.insert(key, pid);
            pages.push(pid);
        }
        if tail_fill > 0 {
            if let Some(pid) = shared_tail {
                inner.pages[pid].refs += 1;
                inner.stats.shared_hits += 1;
                shared_tokens += tail_fill;
                pages.push(pid);
            } else if let Some(pid) = private_tail {
                inner.pages[pid]
                    .content
                    .extend_from_slice(&known[full_chunks * page..]);
                inner.pages[pid].partial_key = Some(known.to_vec());
                inner.partial_index.insert(known.to_vec(), pid);
                pages.push(pid);
            }
        }
        inner.stats.shared_tokens += shared_tokens as u64;
        drop(inner);

        Ok(SeqKv {
            pool: Arc::clone(self),
            pages,
            reserve,
            len: known.len(),
            shared_tokens,
            capacity_tokens: known.len() + gen_len,
            pending_tail_fork,
        })
    }

    /// Drop one reference to `pid`; at zero the page is unregistered
    /// from both indices, its lease drops, and its id returns to the
    /// free list.
    fn release_locked(inner: &mut PoolInner, pid: usize) {
        let page = &mut inner.pages[pid];
        debug_assert!(page.refs > 0, "release of unreferenced page {pid}");
        page.refs -= 1;
        if page.refs == 0 {
            if let Some(key) = page.full_key.take() {
                inner.full_index.remove(&key);
            }
            if let Some(key) = page.partial_key.take() {
                inner.partial_index.remove(&key);
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
    /// Pre-allocated private pages appends (and COW forks) draw from.
    reserve: Vec<usize>,
    /// Logical tokens written.
    len: usize,
    /// Prefix tokens mapped from the index at admission — prefill the
    /// scheduler does not have to re-pay.
    shared_tokens: usize,
    capacity_tokens: usize,
    /// This sequence mapped another sequence's open tail page at
    /// admission and must fork it (or return the provisioned fork page)
    /// before its first divergent write.
    pending_tail_fork: bool,
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
    /// the page-table side of the `LMA281` refcount balance.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len() + self.reserve.len()
    }

    /// Physical ids of every referenced page, mapped first.
    pub fn page_ids(&self) -> Vec<usize> {
        self.pages.iter().chain(self.reserve.iter()).copied().collect()
    }

    /// Append one generated token. The admission reservation covers
    /// every page this sequence can come to own, so under the protocol
    /// this cannot fail; a broken caller (appending past capacity, or a
    /// reservation-arithmetic regression draining the reserve) gets a
    /// typed [`KvProtocolError`] instead of a panic, with the pool left
    /// untouched. Writing into a page mapped by another sequence forks
    /// it first (copy-on-write), so no shared page is ever mutated.
    pub fn append(&mut self, token: u32) -> Result<(), KvProtocolError> {
        if self.len >= self.capacity_tokens {
            return Err(KvProtocolError::AppendPastCapacity {
                len: self.len,
                capacity_tokens: self.capacity_tokens,
            });
        }
        let page = self.pool.cfg.page_tokens;
        let off = self.len % page;
        let mut inner = self.pool.inner.lock();
        if off == 0 {
            // Token starts a fresh page: take one from the reserve.
            let Some(pid) = self.reserve.pop() else {
                return Err(KvProtocolError::ReserveExhausted {
                    len: self.len,
                    needed_for: "a fresh growth page",
                });
            };
            debug_assert!(self.len / page == self.pages.len());
            inner.pages[pid].content.push(token);
            self.pages.push(pid);
        } else {
            let idx = self.pages.len() - 1;
            let pid = self.pages[idx];
            let must_fork = self.pending_tail_fork;
            if must_fork && inner.pages[pid].refs > 1 {
                // COW fork: copy the shared prefix of the open page
                // into a private one and remap; other readers keep the
                // original untouched. The fork target was reserved at
                // admission (a tail sharer always carries one).
                let Some(fork) = self.reserve.pop() else {
                    return Err(KvProtocolError::ReserveExhausted {
                        len: self.len,
                        needed_for: "the copy-on-write fork target",
                    });
                };
                let prefix: Vec<u32> = inner.pages[pid].content[..off].to_vec();
                inner.stats.cow_forks += 1;
                inner.stats.copied_tokens += off as u64;
                let dst = &mut inner.pages[fork];
                dst.content.clear();
                dst.content.extend_from_slice(&prefix);
                dst.content.push(token);
                self.pages[idx] = fork;
                PagedKvPool::release_locked(&mut inner, pid);
            } else {
                if must_fork {
                    // Sharing collapsed before the first divergent
                    // write; the provisioned fork page goes straight
                    // back to the pool instead of idling in reserve.
                    let Some(spare) = self.reserve.pop() else {
                        return Err(KvProtocolError::ReserveExhausted {
                            len: self.len,
                            needed_for: "the collapsed-fork spare",
                        });
                    };
                    PagedKvPool::release_locked(&mut inner, spare);
                }
                // In-place write. Safe even while shared: the page's
                // creator extends past the registered fill, and every
                // sharer's view is sliced to its own length. The
                // sensor measures corruption independently of the fork
                // decision (`LMA282`): truncating *materialized*
                // content on a page others still reference would be
                // observable damage, not a legal extension.
                if inner.pages[pid].refs > 1 && off < inner.pages[pid].content.len() {
                    inner.stats.shared_write_violations += 1;
                }
                // Truncation reclaims the tail a forked-away writer may
                // have left behind — our logical view ends at `off`.
                let dst = &mut inner.pages[pid].content;
                dst.truncate(off);
                dst.push(token);
            }
            self.pending_tail_fork = false;
        }
        self.len += 1;
        Ok(())
    }

    /// Reconstruct the logical token stream from the page table. The
    /// property suite's ground truth: sharing and forking must never
    /// change what a sequence reads back.
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

    #[test]
    fn identical_prompts_share_full_and_tail_pages() {
        let p = pool(32);
        let prompt: Vec<u32> = (0..10).collect();
        let a = p.admit(&prompt, 4).unwrap();
        let before = p.pages_in_use();
        let b = p.admit(&prompt, 4).unwrap();
        // b shares 2 full pages + the open tail; it allocates only the
        // 2 pages it could come to own beyond the shared fulls... i.e.
        // required 4 minus 2 shared fulls.
        assert_eq!(p.pages_in_use(), before + 2);
        assert_eq!(b.shared_tokens(), 10);
        assert_eq!(a.tokens(), b.tokens());
        let shared: Vec<usize> = a
            .page_ids()
            .into_iter()
            .filter(|id| b.page_ids().contains(id))
            .collect();
        assert_eq!(shared.len(), 3, "2 full + 1 tail shared: {shared:?}");
    }

    #[test]
    fn divergent_append_forks_the_shared_tail_copy_on_write() {
        let p = pool(32);
        let prompt: Vec<u32> = (0..6).collect(); // 1 full page + tail fill 2
        let mut a = p.admit(&prompt, 4).unwrap();
        let mut b = p.admit(&prompt, 4).unwrap();
        assert_eq!(p.stats().cow_forks, 0);
        // The tail's creator extends in place — sharers only cover the
        // registered fill, so nothing they can read changes.
        a.append(77).unwrap();
        assert_eq!(p.stats().cow_forks, 0);
        // The sharer's first divergent write forks the tail it mapped,
        // using the fork page its admission reserved.
        b.append(88).unwrap();
        assert_eq!(p.stats().cow_forks, 1);
        assert_eq!(p.stats().copied_tokens, 2);
        let mut want_a = prompt.clone();
        want_a.push(77);
        let mut want_b = prompt.clone();
        want_b.push(88);
        assert_eq!(a.tokens(), want_a);
        assert_eq!(b.tokens(), want_b);
        assert_eq!(p.stats().shared_write_violations, 0);
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
        let shared: Vec<usize> = a
            .page_ids()
            .into_iter()
            .filter(|id| b.page_ids().contains(id))
            .collect();
        assert_eq!(shared.len(), 2);
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
