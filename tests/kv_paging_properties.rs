//! Property battery for the paged KV allocator (DESIGN.md §9.3): random
//! interleavings of admit / append / drop — with prompt families chosen
//! to collide on prefixes so the sharing index and COW fork paths are
//! exercised constantly — must preserve every allocator invariant after
//! every single operation:
//!
//! - the free list matches the backing `MemPool`'s byte accounting
//!   exactly (`in_use · page_bytes == mem.used()`, the `LMA283` gauge);
//! - the per-page refcount sum equals the number of live page-table
//!   mappings (`LMA281`);
//! - no in-place write ever lands on a page another sequence has
//!   materialized content on (`LMA282`'s double-mapped-writable hazard);
//! - every live sequence reads back exactly its own logical tokens,
//!   regardless of what sharing or forking happened around it;
//! - when the last sequence drops, every refcount and every byte
//!   returns to zero.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use lm_engine::MemPool;
use lm_kvpool::{PageConfig, PagedKvPool};
use proptest::prelude::*;

const PAGE_TOKENS: usize = 4;
const POOL_PAGES: usize = 24;

fn small_pool() -> Arc<PagedKvPool> {
    let cfg = PageConfig {
        page_tokens: PAGE_TOKENS,
        bytes_per_token: 8,
    };
    let mem = MemPool::new("prop.kv", POOL_PAGES * cfg.page_bytes());
    PagedKvPool::new(mem, cfg)
}

/// A live sequence plus the token mirror the pool must reproduce and
/// the append budget it was admitted with.
struct Live {
    seq: lm_kvpool::SeqKv,
    expected: Vec<u32>,
    appends_left: usize,
}

/// Every invariant that must hold between operations, checked in one
/// place so each script step audits the full set (panic-based, like the
/// vendored `prop_assert!`).
fn assert_invariants(pool: &Arc<PagedKvPool>, live: &[Live]) {
    assert!(
        pool.accounting_balanced(),
        "page free list out of sync with MemPool bytes: {:?}",
        pool.counters()
    );
    let c = pool.counters();
    assert!(c.pages_in_use <= c.pages_total);
    assert!(c.pages_peak >= c.pages_in_use);
    let mapped: u64 = live.iter().map(|l| l.seq.mapped_pages() as u64).sum();
    assert_eq!(
        c.refcount_sum, mapped,
        "refcount sum must equal live page-table mappings (LMA281)"
    );
    assert_eq!(
        pool.stats().shared_write_violations,
        0,
        "a write landed on a double-mapped page (LMA282)"
    );
    for (i, l) in live.iter().enumerate() {
        assert_eq!(l.seq.len(), l.expected.len());
        assert_eq!(
            l.seq.tokens(),
            l.expected,
            "sequence {i} read back foreign or clobbered tokens"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The main script property: an arbitrary interleaving of admits
    /// (from three colliding prompt families), appends, and drops keeps
    /// every allocator invariant at every step, and tearing everything
    /// down at the end returns the pool to exactly zero.
    #[test]
    fn any_admit_append_drop_interleaving_preserves_all_invariants(
        ops in proptest::collection::vec(any::<u32>(), 1..48),
    ) {
        let pool = small_pool();
        let mut live: Vec<Live> = Vec::new();
        let mut fresh_token: u32 = 7_000_000;

        for op in ops {
            let [sel, a, b, c] = op.to_le_bytes();
            match sel % 3 {
                0 => {
                    // Admit: prompts within a family are prefixes of one
                    // token stream, so admissions constantly hit the
                    // full-page and partial-tail sharing paths.
                    let family = u32::from(a % 3);
                    let plen = (b % 21) as usize;
                    let gen_len = (c % 9) as usize;
                    let prompt: Vec<u32> =
                        (0..plen as u32).map(|i| family * 1000 + i).collect();
                    let before = pool.counters();
                    match pool.admit(&prompt, gen_len) {
                        Ok(seq) => {
                            prop_assert_eq!(seq.tokens(), prompt.clone());
                            live.push(Live { seq, expected: prompt, appends_left: gen_len });
                        }
                        Err(_) => {
                            // Exhaustion must be atomic: a failed admit
                            // maps and leaks nothing.
                            let after = pool.counters();
                            prop_assert_eq!(before.pages_in_use, after.pages_in_use);
                            prop_assert_eq!(before.refcount_sum, after.refcount_sum);
                        }
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let idx = (a as usize) % live.len();
                        let l = &mut live[idx];
                        if l.appends_left > 0 {
                            fresh_token += 1;
                            l.seq.append(fresh_token).unwrap();
                            l.expected.push(fresh_token);
                            l.appends_left -= 1;
                        }
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let idx = (a as usize) % live.len();
                        live.swap_remove(idx);
                    }
                }
            }
            assert_invariants(&pool, &live);
        }

        live.clear();
        let end = pool.counters();
        prop_assert_eq!(end.pages_in_use, 0, "pages leaked after final drop");
        prop_assert_eq!(end.refcount_sum, 0, "refcounts must balance to zero on drop");
        let stats = pool.stats();
        prop_assert_eq!(stats.pages_allocated, stats.pages_freed);
        prop_assert!(pool.accounting_balanced(), "bytes leaked after final drop");
    }

    /// Directed sharing property: a second admission of the same prompt
    /// maps every full prefix page from the index instead of allocating,
    /// so two sequences cost strictly less than twice one sequence.
    #[test]
    fn identical_prompts_share_every_full_page(
        plen in PAGE_TOKENS..(3 * PAGE_TOKENS + 2),
        gen_len in 1usize..6,
    ) {
        let pool = small_pool();
        let prompt: Vec<u32> = (0..plen as u32).collect();
        let a = pool.admit(&prompt, gen_len).unwrap();
        let solo = pool.pages_in_use();
        let b = pool.admit(&prompt, gen_len).unwrap();
        let full_pages = plen / PAGE_TOKENS;
        prop_assert_eq!(
            pool.stats().shared_tokens as usize,
            full_pages * PAGE_TOKENS + plen % PAGE_TOKENS,
            "the whole known prefix must be served by the index"
        );
        prop_assert!(
            pool.pages_in_use() < 2 * solo,
            "sharing saved nothing: solo {} both {}",
            solo,
            pool.pages_in_use()
        );
        drop(a);
        drop(b);
        prop_assert_eq!(pool.counters().refcount_sum, 0);
        prop_assert!(pool.accounting_balanced());
    }

    /// Directed COW property: two sequences sharing a prompt then
    /// appending divergent tokens stay logically isolated — each reads
    /// back its own continuation and the divergence is what the fork
    /// counter records.
    #[test]
    fn divergent_continuations_stay_isolated(
        plen in 1usize..(4 * PAGE_TOKENS),
        steps in 1usize..6,
    ) {
        let pool = small_pool();
        let prompt: Vec<u32> = (0..plen as u32).collect();
        let mut a = pool.admit(&prompt, steps).unwrap();
        let mut b = pool.admit(&prompt, steps).unwrap();
        let mut ea = prompt.clone();
        let mut eb = prompt.clone();
        for i in 0..steps as u32 {
            a.append(100_000 + i).unwrap();
            ea.push(100_000 + i);
            b.append(200_000 + i).unwrap();
            eb.push(200_000 + i);
        }
        prop_assert_eq!(a.tokens(), ea);
        prop_assert_eq!(b.tokens(), eb);
        prop_assert_eq!(pool.stats().shared_write_violations, 0);
        drop(a);
        drop(b);
        let end = pool.counters();
        prop_assert_eq!(end.pages_in_use, 0);
        prop_assert_eq!(end.refcount_sum, 0);
    }
}
