//! Diagnostic primitives: stable lint codes, severities, and the report
//! container tooling consumes (JSON for `repro analyze`, programmatic
//! access for strict engine construction and the serve pre-flight).
//!
//! Code ranges are stable API:
//!
//! | range    | module         | judges                                        |
//! |----------|----------------|-----------------------------------------------|
//! | `LMA0xx` | `graph_lints`  | operator-graph structure                      |
//! | `LMA1xx` | `plan_lints`   | Algorithm 3 plans and offloading policies     |
//! | `LMA20x` | `model_lints`  | the cost model (Eq. 1-24), a `ModelProbe`     |
//! | `LMA25x` | `serve_lints`  | `lm-serve` slot plans, a `ServeProbe`         |
//! | `LMA26x` | `serve_lints`  | SLO / overload policies, a `SloProbe`         |
//! | `LMA27x` | `obs_lints`    | observability wiring, an `ObsProbe`           |
//! | `LMA28x` | `paging_lints` | paged-KV geometry and counters, a `PagingProbe` |
//! | `LMA29x` | `verify_lints` | `lm-verify` runs, a `VerifyProbe`             |
//! | `LMA30x` | `async_lints`  | async serving sessions, an `AsyncProbe`       |
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
    /// Graph has a dependency cycle.
    Lma001CyclicGraph = "LMA001",
    /// Node unreachable from any source and feeding no sink (isolated).
    Lma002OrphanNode = "LMA002",
    /// The same edge is recorded more than once.
    Lma003DuplicateEdge = "LMA003",
    /// Compute node carries zero FLOPs *and* zero bytes.
    Lma004ZeroCostNode = "LMA004",
    /// An edge endpoint is not a node of the graph.
    Lma005EdgeOutOfBounds = "LMA005",
    /// A node depends on itself.
    Lma006SelfEdge = "LMA006",
    /// A `Transfer` node shares a wavefront with compute operators.
    Lma007TransferOffBoundary = "LMA007",
    /// Plan's inter-op parallelism exceeds the graph's Kahn width.
    Lma101InterOpExceedsWidth = "LMA101",
    /// Compute + transfer threads exceed the hardware thread budget.
    Lma102ThreadBudgetExceeded = "LMA102",
    /// Transfer-thread vector does not cover the five load/store tasks.
    Lma103WrongTransferVector = "LMA103",
    /// A transfer task was granted zero threads.
    Lma104ZeroTransferThreads = "LMA104",
    /// Thread grants invert the transfer-volume ordering.
    Lma105DisproportionalTransfer = "LMA105",
    /// `inter_op_total` ≠ compute inter-op + five transfer tasks.
    Lma106InterOpTotalMismatch = "LMA106",
    /// Step-time estimate is below the compute-time estimate.
    Lma107StepBelowCompute = "LMA107",
    /// Offloading policy fails validation (fractions, placement).
    Lma108InvalidPolicy = "LMA108",
    /// Memory plan exceeds a device or host pool capacity.
    Lma109CapacityExceeded = "LMA109",
    /// A bundled operator's working set exceeds the LLC capacity.
    Lma110BundleExceedsCache = "LMA110",
    /// A sampled task time disagrees with bytes / bandwidth dimensional
    /// bounds.
    Lma201DimensionalMismatch = "LMA201",
    /// `T_gen` is not the max of the six task aggregates (Eq. 2).
    Lma202TgenNotMax = "LMA202",
    /// Quantized footprint exceeds the fp16 footprint.
    Lma203QuantizedLargerThanF16 = "LMA203",
    /// A sampled quantity is negative, NaN or infinite.
    Lma204NonFiniteQuantity = "LMA204",
    /// Serve plan leases more KV bytes than its pool holds.
    Lma250SlotsExceedPool = "LMA250",
    /// Serve block size exceeds the Kahn width bound of its block graph.
    Lma251BlockExceedsWidth = "LMA251",
    /// Serve plan leaves most of the KV pool idle (underutilization).
    Lma252SlotsUnderutilizePool = "LMA252",
    /// SLO target below the physical floor (one prefill + one step):
    /// unmeetable by any policy.
    Lma260SloBelowFloor = "LMA260",
    /// SLO enforcement enabled with every actuator disabled.
    Lma261SloNoActuator = "LMA261",
    /// Preemption armed on a single-slot plan (evicting the only slot
    /// thrashes without adding service capacity).
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
    /// Sum of page refcounts disagrees with the live page tables, or
    /// more pages are in use than the pool holds.
    Lma281PageRefcountImbalance = "LMA281",
    /// A page was written in place while mapped by more than one
    /// sequence — the copy-on-write discipline was bypassed.
    Lma282DoubleMappedWritablePage = "LMA282",
    /// The verification sweep's config lattice is degenerate: an axis
    /// holds fewer than two distinct values or the total point count is
    /// below the coverage floor, so "zero witnesses" is vacuous.
    Lma290SweepDomainDegenerate = "LMA290",
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
    /// A wall-clock SLO on an async session sits at or below the cost
    /// model's physical TTFT floor (one worst-case group prefill plus
    /// one full-occupancy decode step): no scheduling decision can meet
    /// it, and wall jitter only pushes further past it.
    Lma301AsyncSloBelowFloor = "LMA301",
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
            "LMA001", "LMA002", "LMA003", "LMA004", "LMA005", "LMA006", "LMA007", "LMA101",
            "LMA102", "LMA103", "LMA104", "LMA105", "LMA106", "LMA107", "LMA108", "LMA109",
            "LMA110", "LMA201", "LMA202", "LMA203", "LMA204", "LMA250", "LMA251", "LMA252",
            "LMA260", "LMA261", "LMA262", "LMA270", "LMA271", "LMA280", "LMA281", "LMA282",
            "LMA290", "LMA291", "LMA292", "LMA300", "LMA301", "LMA302",
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
            1..=99 => "graph",
            100..=199 => "plan",
            200..=249 => "model",
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
            assert!(n > prev, "{s}: registry not strictly ascending (codes reused)");
            prev = n;
            assert_ne!(family_of(n), "unassigned", "{s} falls outside every family range");
            let name = format!("{code:?}");
            let claimed = match &name {
                _ if name.starts_with("Lma0") => "graph",
                _ if name.starts_with("Lma1") => "plan",
                _ if name.starts_with("Lma20") => "model",
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

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report::default();
        assert!(r.is_clean());
        r.diagnostics
            .push(Diagnostic::warn(LintCode::Lma002OrphanNode, "node 3", "isolated"));
        assert!(r.is_clean());
        assert!(r.has(LintCode::Lma002OrphanNode));
        r.diagnostics.push(Diagnostic::error(
            LintCode::Lma001CyclicGraph,
            "graph",
            "cycle 1 -> 2 -> 1",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        let text = r.to_string();
        assert!(text.contains("error[LMA001]") && text.contains("warning[LMA002]"), "{text}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = Report::new(vec![Diagnostic::error(
            LintCode::Lma102ThreadBudgetExceeded,
            "plan",
            "7*16+9 > 112",
        )]);
        let json = r.to_json();
        assert!(json.contains("Lma102ThreadBudgetExceeded"), "{json}");
        let back: Report = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.diagnostics.len(), 1);
        assert_eq!(back.diagnostics[0].code, LintCode::Lma102ThreadBudgetExceeded);
        assert_eq!(back.diagnostics[0].severity, Severity::Error);
    }

    #[test]
    fn severity_orders_error_above_warn() {
        assert!(Severity::Error > Severity::Warn);
    }
}
