//! Diagnostic primitives: stable lint codes, severities, and the report
//! container tooling consumes (JSON for `repro analyze`, programmatic
//! access for strict engine construction and the serve pre-flight).
//!
//! Code ranges are stable API:
//!
//! | range    | module         | judges                                        |
//! |----------|----------------|-----------------------------------------------|
//! | `LMA0xx` | (retired)      | operator graphs: the builders and Algorithm 3 |
//! | `LMA1xx` | `plan_lints`   | policy placements and operator bundling       |
//! | `LMA20x` | (retired)      | the cost model's own arithmetic               |
//! | `LMA25x` | `serve_lints`  | `lm-serve` slot plans, a `ServeProbe`         |
//! | `LMA26x` | `serve_lints`  | SLO / overload policies, a `SloProbe`         |
//! | `LMA27x` | `obs_lints`    | observability wiring, an `ObsProbe`           |
//! | `LMA28x` | `paging_lints` | paged-KV geometry, a `PagingProbe`            |
//! | `LMA29x` | `verify_lints` | `lm-verify` runs, a `VerifyProbe`             |
//! | `LMA30x` | `async_lints`  | async channel and clock, an `AsyncProbe`      |
//!
//! What a code means is written once: the doc comment on its row of
//! `lint_codes!` below ([`LintCode`]). A code, once shipped, keeps its
//! meaning; retired codes are never reused.

use serde::{Deserialize, Serialize};

/// Declares [`LintCode`] from one list: each `Variant = "LMAnnn"` row
/// yields the enum variant, its [`LintCode::as_str`] arm and its
/// [`LintCode::ALL`] entry, in declaration order.
macro_rules! lint_codes {
    ($($(#[$doc:meta])* $variant:ident = $code:literal,)+) => {
        /// Stable identifiers of every lint the analyzer can emit.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub enum LintCode {
            $($(#[$doc])* $variant,)+
        }

        impl LintCode {
            /// The stable textual code, e.g. `"LMA001"`.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(LintCode::$variant => $code,)+
                }
            }

            /// All codes, for enumeration in docs and coverage tests.
            pub const ALL: [LintCode; [$($code),+].len()] = [$(LintCode::$variant,)+];
        }
    };
}

lint_codes! {
    // The graph family (LMA0xx) is retired whole: the shipped builders
    // emit DAGs and Algorithm 3 refuses any other graph.
    // LMA001 (a dependency cycle) is retired: the search returns
    // `SearchError::CyclicGraph` and the executor refuses it. Never reuse 001.
    // LMA002 (an isolated node) is retired: `attention_graph` wires every
    // node. Never reuse 002.
    // LMA003 (a duplicate edge) is retired: `try_depend` dedupes.
    // Never reuse 003.
    // LMA004 (a zero-cost compute node) is retired: `Workload::new` asserts
    // positive dimensions, so every compute node has FLOPs. Never reuse 004.
    // LMA005 (an edge endpoint outside the graph) is retired: `try_depend`
    // rejects it. Never reuse 005.
    // LMA006 (a self edge) is retired: `try_depend` rejects it.
    // Never reuse 006.
    // LMA007 (a transfer node in a compute wavefront) is retired: no
    // builder made a transfer node, and `OpKind` has none. Never reuse 007.
    // LMA101 (inter-op beyond the Kahn width) is retired: Algorithm 3 sets
    // inter-op to the Kahn width. Never reuse 101.
    // LMA102 (a blown thread budget) is retired: intra-op is enumerated
    // only while five threads stay free. Never reuse 102.
    // LMA103 (a transfer vector not of five tasks) is retired: the search
    // returns `SearchError::WrongTransferCount`. Never reuse 103.
    // LMA104 (a transfer task granted no thread) is retired:
    // `assign_transfer_threads` grants each at least one. Never reuse 104.
    // LMA105 (grants against the volume order) is retired: the grants are
    // largest-remainder shares of the volumes. Never reuse 105.
    // LMA106 (`inter_op_total` not compute + 5) is retired: the search
    // builds it as that sum. Never reuse 106.
    // LMA107 (a step below its compute time) is retired: the step is the
    // max of compute and the slowest transfer. Never reuse 107.
    // LMA108 (an invalid policy) is retired: the shipped callers price the
    // policy first, and `BaseCostModel::new` refuses an invalid one.
    // Never reuse 108.
    /// Memory plan exceeds a device or host pool capacity.
    Lma109CapacityExceeded = "LMA109",
    /// A bundled operator's working set exceeds the LLC capacity.
    Lma110BundleExceedsCache = "LMA110",
    // The cost-model family (LMA20x) is retired whole: it re-checked
    // `BaseCostModel`'s own arithmetic on a probe sampled from it.
    // LMA201 (a task time below bytes / bandwidth) is retired. Never reuse 201.
    // LMA202 (`T_gen` not the max of Eq. 2) is retired; its independent
    // body is the reference of a `t_gen` test. Never reuse 202.
    // LMA203 (a footprint above fp16) is retired: it fired only on
    // unquantised f32 policies, always falsely. Never reuse 203.
    // LMA204 (a non-finite sampled quantity) is retired. Never reuse 204.
    /// Serve plan leases more KV bytes than its pool holds.
    Lma250SlotsExceedPool = "LMA250",
    // LMA251 (serve block beyond its block graph's Kahn width) is
    // retired: the graph was built `head_groups` wide per slot, so it
    // could not fire on a derived plan. Never reuse 251.
    // LMA252 (a plan leaving most of the KV pool idle) is retired: the
    // planner takes `pages_total / ⌈pages_per_slot / 2⌉` slots, so less
    // than one planned residency ever sits idle. Never reuse 252.
    /// SLO target below the physical floor (one prefill + one step):
    /// unmeetable by any policy.
    Lma260SloBelowFloor = "LMA260",
    // LMA261 (SLO enforcement with every actuator disabled) is retired:
    // enforcing arms every actuator, so no policy can build the case.
    // Never reuse 261.
    /// SLO enforcement (which arms preemption) on a single-slot plan:
    /// evicting the only slot thrashes without adding service capacity.
    Lma262PreemptSingleSlot = "LMA262",
    /// SLO enforcement enabled without a TTFT histogram registered:
    /// breaches can neither be observed nor post-mortemed.
    Lma270SloWithoutTtftHistogram = "LMA270",
    /// Flight recorder armed with zero capacity while chaos faults are
    /// active: the post-mortem dump would always be empty.
    Lma271FlightRecorderZeroCapacity = "LMA271",
    /// Page geometry broken: zero-size pages, `page_bytes` not equal to
    /// `page_tokens · bytes_per_token`, a page size that does not divide
    /// the plan's KV block, or a pool too small for one page.
    Lma280PageGeometryInvalid = "LMA280",
    // LMA281 (page refcounts disagreeing with the live page tables) is
    // retired: the one probe constructor is a plan-time one, where every
    // counter is zero; the pool's own tests and loom exploration check
    // conservation at runtime. Never reuse 281.
    // LMA282 (a shared page written in place) is retired: only full
    // prompt pages are shared and none is ever written. Never reuse 282.
    // LMA290 (a degenerate sweep lattice) is retired: `run_sweep` takes one
    // of two constant lattices, and `repro verify` gates on the point
    // count itself. Never reuse 290.
    /// A deployment config passed its planner lints but an executable
    /// ground-truth invariant failed on the same config — the lint is
    /// unsound at that point and must be tightened.
    Lma291LintUnsoundnessWitness = "LMA291",
    /// A protocol transition declared in the state-machine's transition
    /// table was never exercised by the bounded exploration — its
    /// invariants are unverified.
    Lma292UncheckedProtocolTransition = "LMA292",
    /// An async serving session configured a zero-capacity per-request
    /// token channel: the bounded mpsc cannot hold a single token, so
    /// every delivery would stall into the backpressure path and every
    /// stream would resolve as a spurious disconnect.
    Lma300AsyncZeroChannelCapacity = "LMA300",
    // LMA301 (an async session's SLO at or below the TTFT floor) is
    // retired: it was LMA260's test against the same floor, and an async
    // run is judged by LMA260 like a virtual one. Never reuse 301.
    /// The async session's virtual-per-wall time scale is non-finite or
    /// non-positive, so wall time can never map onto the modelled clock.
    Lma302AsyncBadTimeScale = "LMA302",
}

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but possibly intentional; does not block execution.
    Warn,
    /// A defect: running this configuration would hang, crash or produce
    /// wrong estimates.
    Error,
}

/// One finding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Diagnostic {
    pub code: LintCode,
    pub severity: Severity,
    /// What was inspected, e.g. `node 7 (softmax[2])` or `plan`.
    pub subject: String,
    /// Human-readable explanation with the offending values inline.
    pub message: String,
}

impl Diagnostic {
    pub fn error(code: LintCode, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            subject: subject.into(),
            message: message.into(),
        }
    }

    pub fn warn(code: LintCode, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warn,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warn => "warning",
        };
        write!(
            f,
            "{sev}[{}] {}: {}",
            self.code.as_str(),
            self.subject,
            self.message
        )
    }
}

/// The outcome of an analysis pass.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    /// Merge another report's findings into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// No `Error`-level findings (warnings are allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Pretty JSON for `results/analyze.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for code in LintCode::ALL {
            let s = code.as_str();
            assert!(s.starts_with("LMA") && s.len() == 6, "{s}");
            assert!(seen.insert(s), "duplicate code {s}");
        }
        assert_eq!(seen.len(), LintCode::ALL.len());
    }

    /// Golden registry: the full shipped code list, in order. A code
    /// that disappears, changes its textual form, or collides with a
    /// retired one breaks downstream JSON consumers — this test turns
    /// any such drift into a deliberate diff of the golden list.
    #[test]
    fn code_registry_is_stable_against_golden_list() {
        const GOLDEN: &[&str] = &[
            "LMA109", "LMA110", "LMA250", "LMA260", "LMA262", "LMA270", "LMA271", "LMA280",
            "LMA291", "LMA292", "LMA300", "LMA302",
        ];
        let shipped: Vec<&str> = LintCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(shipped, GOLDEN, "LMA registry drifted from the golden list");
    }

    /// Codes are never reused across families: every code's numeric part
    /// must sit inside exactly the family range its variant name claims,
    /// and the registry must be strictly ascending (a new code can only
    /// be appended to its family, never inserted over a retired number).
    #[test]
    fn codes_stay_in_their_family_ranges() {
        let family_of = |n: u32| match n {
            100..=199 => "plan",
            250..=259 => "serve",
            260..=269 => "slo",
            270..=279 => "obs",
            280..=289 => "paging",
            290..=299 => "verify",
            300..=309 => "async",
            _ => "unassigned",
        };
        let mut prev = 0u32;
        for code in LintCode::ALL {
            let s = code.as_str();
            let n: u32 = s[3..].parse().unwrap_or_else(|_| panic!("bad code {s}"));
            assert!(
                n > prev,
                "{s}: registry not strictly ascending (codes reused)"
            );
            prev = n;
            assert_ne!(
                family_of(n),
                "unassigned",
                "{s} falls outside every family range"
            );
            let name = format!("{code:?}");
            let claimed = match &name {
                _ if name.starts_with("Lma1") => "plan",
                _ if name.starts_with("Lma25") => "serve",
                _ if name.starts_with("Lma26") => "slo",
                _ if name.starts_with("Lma27") => "obs",
                _ if name.starts_with("Lma28") => "paging",
                _ if name.starts_with("Lma29") => "verify",
                _ if name.starts_with("Lma30") => "async",
                _ => "unknown",
            };
            assert_eq!(claimed, family_of(n), "{s} ({name}) strays from its family");
        }
    }

    /// Retired codes stay retired: none is shipped again, and the list
    /// matches the "Never reuse" rows of `lint_codes!` one for one.
    #[test]
    fn retired_codes_are_never_reused() {
        const RETIRED: &[&str] = &[
            "LMA001", "LMA002", "LMA003", "LMA004", "LMA005", "LMA006", "LMA007", "LMA101",
            "LMA102", "LMA103", "LMA104", "LMA105", "LMA106", "LMA107", "LMA108", "LMA201",
            "LMA202", "LMA203", "LMA204", "LMA251", "LMA252", "LMA261", "LMA281", "LMA282",
            "LMA290", "LMA301",
        ];
        for code in LintCode::ALL {
            assert!(
                !RETIRED.contains(&code.as_str()),
                "{} is retired",
                code.as_str()
            );
        }
        // Spelled in two parts so this line does not match itself.
        let needle = concat!("Never", " reuse ");
        let marked: Vec<String> = include_str!("diag.rs")
            .split(needle)
            .skip(1)
            .map(|rest| format!("LMA{}", &rest[..3]))
            .collect();
        assert_eq!(marked, RETIRED, "retirement rows and RETIRED drifted apart");
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic::warn(
            LintCode::Lma110BundleExceedsCache,
            "bundle 3",
            "working set over the LLC",
        ));
        assert!(r.is_clean());
        assert!(r.has(LintCode::Lma110BundleExceedsCache));
        r.diagnostics.push(Diagnostic::error(
            LintCode::Lma109CapacityExceeded,
            "policy",
            "GPU placement over capacity",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        let text = r.to_string();
        assert!(
            text.contains("error[LMA109]") && text.contains("warning[LMA110]"),
            "{text}"
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = Report::new(vec![Diagnostic::error(
            LintCode::Lma109CapacityExceeded,
            "policy",
            "host placement over capacity",
        )]);
        let json = r.to_json();
        assert!(json.contains("Lma109CapacityExceeded"), "{json}");
        let back: Report = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.diagnostics.len(), 1);
        assert_eq!(back.diagnostics[0].code, LintCode::Lma109CapacityExceeded);
        assert_eq!(back.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn severity_orders_error_above_warn() {
        assert!(Severity::Error > Severity::Warn);
    }
}
