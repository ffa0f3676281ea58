//! `LMA28x` — page geometry, judged at plan time on a [`PagingProbe`]: a
//! page size that does not divide the plan's KV block reintroduces
//! padding, and a zero-size page or an empty pool cannot serve at all.
//! The pool's live counters are not linted: refcount conservation and
//! pages in use against capacity are checked where they change, by
//! `PagedKvPool::accounting_balanced`, the property battery in
//! `tests/kv_paging_properties.rs`, `lm-verify`'s lattice and its loom
//! exploration of the pool protocol.

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
}

/// Run every paged-KV lint over a sampled probe.
pub fn lint_paging(probe: &PagingProbe) -> Report {
    let mut out = Vec::new();

    // LMA280: geometry. Every downstream invariant assumes pages are
    // nonzero, byte-consistent, and tile the KV block exactly; check
    // them together so a broken derivation surfaces as one finding with
    // all the offending values inline.
    let bytes_consistent =
        probe.page_bytes == probe.page_tokens.saturating_mul(probe.bytes_per_token);
    let tiles_block =
        probe.page_tokens > 0 && probe.kv_block_tokens.is_multiple_of(probe.page_tokens);
    if probe.page_tokens == 0
        || probe.page_bytes == 0
        || !bytes_consistent
        || !tiles_block
        || probe.pages_total == 0
    {
        let mut message = format!(
            "page of {} tokens / {} B (expected {} B at {} B/token) \
             against a {}-token KV block and a {}-page pool",
            probe.page_tokens,
            probe.page_bytes,
            probe.page_tokens.saturating_mul(probe.bytes_per_token),
            probe.bytes_per_token,
            probe.kv_block_tokens,
            probe.pages_total
        );
        if probe.page_tokens > 0 && !tiles_block {
            let below = probe.kv_block_tokens - probe.kv_block_tokens % probe.page_tokens;
            let above = below.saturating_add(probe.page_tokens);
            // A context of 0 asks the planner to derive one, so it is
            // no neighbour to suggest.
            message += &if below == 0 {
                format!("; the nearest whole-page context is {above} tokens")
            } else {
                format!("; the nearest whole-page contexts are {below} and {above} tokens")
            };
        }
        out.push(Diagnostic::error(
            LintCode::Lma280PageGeometryInvalid,
            "paging.geometry".to_string(),
            message,
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
        assert!(json.contains("pages_total"), "{json}");
    }
}
