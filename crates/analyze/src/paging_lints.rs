//! `LMA28x` — the paged KV allocator's failure modes are silent: a page
//! size that does not divide the plan's KV block reintroduces padding, a
//! refcount drift leaks pages only under churn, and a missed COW fork
//! corrupts a *different* request's context. A [`PagingProbe`] carries
//! the geometry (judged at plan time) and the pool's live counters
//! (judged when a run ends).

use crate::diag::{Diagnostic, LintCode, Report};
use serde::{Deserialize, Serialize};

/// Observations sampled from one paged KV pool + plan pairing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PagingProbe {
    /// Tokens one page holds.
    pub page_tokens: u64,
    /// Bytes one page leases from the backing `MemPool`.
    pub page_bytes: u64,
    /// KV bytes one token occupies across all layers.
    pub bytes_per_token: u64,
    /// Tokens in the plan's per-slot KV block (`slot_context`); pages
    /// must tile it exactly.
    pub kv_block_tokens: u64,
    /// Pages the backing pool can hold in total.
    pub pages_total: u64,
    /// Pages currently mapped by at least one sequence.
    pub pages_in_use: u64,
    /// Sum of refcounts over all live pages.
    pub page_refcount_sum: u64,
    /// Page-table entries summed over all live sequences (each entry is
    /// one mapping, shared or private).
    pub seq_mapped_pages: u64,
    /// In-place writes observed on a page whose refcount was > 1. Any
    /// nonzero value means the COW discipline was bypassed.
    pub shared_write_violations: u64,
}

/// Run every paged-KV lint over a sampled probe.
pub fn lint_paging(probe: &PagingProbe) -> Report {
    let mut out = Vec::new();

    // LMA280: geometry. Every downstream invariant assumes pages are
    // nonzero, byte-consistent, and tile the KV block exactly; check
    // them together so a broken derivation surfaces as one finding with
    // all the offending values inline.
    let bytes_consistent = probe.page_bytes == probe.page_tokens.saturating_mul(probe.bytes_per_token);
    let tiles_block =
        probe.page_tokens > 0 && probe.kv_block_tokens.is_multiple_of(probe.page_tokens);
    if probe.page_tokens == 0
        || probe.page_bytes == 0
        || !bytes_consistent
        || !tiles_block
        || probe.pages_total == 0
    {
        out.push(Diagnostic::error(
            LintCode::Lma280PageGeometryInvalid,
            "paging.geometry".to_string(),
            format!(
                "page of {} tokens / {} B (expected {} B at {} B/token) \
                 against a {}-token KV block and a {}-page pool",
                probe.page_tokens,
                probe.page_bytes,
                probe.page_tokens.saturating_mul(probe.bytes_per_token),
                probe.bytes_per_token,
                probe.kv_block_tokens,
                probe.pages_total
            ),
        ));
    }

    // LMA281: refcount conservation. Every page-table entry holds
    // exactly one reference, so the two sums must agree; and a pool
    // cannot have more pages mapped than it owns.
    if probe.page_refcount_sum != probe.seq_mapped_pages || probe.pages_in_use > probe.pages_total {
        out.push(Diagnostic::error(
            LintCode::Lma281PageRefcountImbalance,
            "paging.refcounts".to_string(),
            format!(
                "refcount sum {} vs {} mapped page-table entries; {} of \
                 {} pages in use",
                probe.page_refcount_sum,
                probe.seq_mapped_pages,
                probe.pages_in_use,
                probe.pages_total
            ),
        ));
    }

    // LMA282: copy-on-write bypass. The pool counts every in-place
    // write that landed on a page with refcount > 1; a single one means
    // some other sequence's KV history was silently overwritten.
    if probe.shared_write_violations > 0 {
        out.push(Diagnostic::error(
            LintCode::Lma282DoubleMappedWritablePage,
            "paging.cow".to_string(),
            format!(
                "{} in-place write(s) hit a page mapped by more than one \
                 sequence — copy-on-write fork was bypassed",
                probe.shared_write_violations
            ),
        ));
    }

    Report::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound() -> PagingProbe {
        PagingProbe {
            page_tokens: 16,
            page_bytes: 16 * 1024,
            bytes_per_token: 1024,
            kv_block_tokens: 512,
            pages_total: 256,
            pages_in_use: 40,
            page_refcount_sum: 48,
            seq_mapped_pages: 48,
            shared_write_violations: 0,
        }
    }

    #[test]
    fn sound_probe_is_clean() {
        let r = lint_paging(&sound());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn zero_page_tokens_caught() {
        let mut p = sound();
        p.page_tokens = 0;
        let r = lint_paging(&p);
        assert!(r.has(LintCode::Lma280PageGeometryInvalid), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn inconsistent_page_bytes_caught() {
        let mut p = sound();
        p.page_bytes += 1;
        let r = lint_paging(&p);
        assert!(r.has(LintCode::Lma280PageGeometryInvalid), "{r}");
    }

    #[test]
    fn empty_pool_caught() {
        let mut p = sound();
        p.pages_total = 0;
        let r = lint_paging(&p);
        assert!(r.has(LintCode::Lma280PageGeometryInvalid), "{r}");
    }

    #[test]
    fn refcount_drift_caught() {
        let mut p = sound();
        p.page_refcount_sum += 1;
        let r = lint_paging(&p);
        assert!(r.has(LintCode::Lma281PageRefcountImbalance), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn overcommitted_pages_caught() {
        let mut p = sound();
        p.pages_in_use = p.pages_total + 1;
        let r = lint_paging(&p);
        assert!(r.has(LintCode::Lma281PageRefcountImbalance), "{r}");
    }

    #[test]
    fn shared_write_violation_caught() {
        let mut p = sound();
        p.shared_write_violations = 1;
        let r = lint_paging(&p);
        assert!(r.has(LintCode::Lma282DoubleMappedWritablePage), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn saturating_geometry_math_does_not_wrap() {
        let mut p = sound();
        p.page_tokens = u64::MAX;
        p.bytes_per_token = u64::MAX;
        let r = lint_paging(&p);
        assert!(r.has(LintCode::Lma280PageGeometryInvalid), "{r}");
    }

    #[test]
    fn probe_serializes() {
        let json = serde_json::to_string(&sound()).expect("serialize");
        assert!(json.contains("shared_write_violations"), "{json}");
    }
}
