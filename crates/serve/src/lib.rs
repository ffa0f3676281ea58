//! # lm-serve
//!
//! A deterministic continuous-batching serving layer over the offloading
//! engine (DESIGN.md §9): independent, ragged-length requests share the
//! modelled clock's decode steps, where the per-layer weight stream —
//! the dominant cost of offloaded generation (Eq. 2) — is charged once
//! for whoever is active instead of once per request. Every scheduler
//! gets its tokens from one backend call, [`ServeBackend::step`], whose
//! provided body still runs each request alone, although the engine now
//! steps sequences of any lengths in one sweep; nothing is padded, and
//! only the static baseline pads, in modelled time.
//!
//! Pieces:
//!
//! - [`request`]: the [`Request`]/[`Response`] vocabulary (priority,
//!   deadline, seed), typed [`Rejection`]s, the virtual-clock
//!   [`ArrivalQueue`], and the seeded [`synth_traffic`] generator;
//! - [`backend`]: the [`ServeBackend`] substrate split — tokens are a
//!   deterministic function of the request alone (proved by the zig-zag
//!   equivalence tests), timing comes from the analytic cost model —
//!   with [`AnalyticBackend`] (OPT-30B-class) and [`EngineBackend`]
//!   (real miniature engine) implementations;
//! - [`admission`]: the model-guided admission controller producing a
//!   [`ServePlan`] (slots vs KV pool headroom, in pages of the engine's
//!   `KV_PAGE_TOKENS`) and judging it (`LMA280`);
//! - [`preflight`]: the one gate every run passes —
//!   [`preflight::preflight`] derives the plan once and rejects an
//!   infeasible plan, SLO policy ([`SloPolicy::check`]) or async front end
//!   ([`AsyncConfig::check`]) with a typed report; `lm-analyze` supplies
//!   only the codes and the report type;
//! - [`scheduler`]: the continuous scheduler — a boundary state machine
//!   over paged KV, parameterized over the [`driver`] clock/transport
//!   split — with the sequential and static-batching baselines it is
//!   measured against kept as separate loops beside it;
//! - [`session`]: the serve API — [`ServeSession`], one builder over a
//!   backend, a [`ServeConfig`] and a [`ServeMode`], is the only entry
//!   point, on the virtual clock ([`ServeSession::run`],
//!   [`ServeSession::run_streaming`]) and in real time
//!   ([`ServeSession::run_async`]): wall-clock pacing
//!   ([`AsyncConfig::time_scale`]), per-request bounded tokio token
//!   channels and disconnect-on-drop;
//! - [`slo`]: the overload-protection layer (DESIGN.md §9.2) — the
//!   [`SloPolicy`] objective and switch, the model-driven [`TtftModel`]
//!   predictor, and the ladder — a list of [`DegradeRung`]s in
//!   [`ServeConfig::ladder`] — the scheduler climbs when preemption
//!   alone cannot hold the objective. Cancellation
//!   ([`CancelToken`] → terminal [`Cancellation`]) and slot crashes
//!   reclaim KV leases mid-generation; chaos storms drive all of it
//!   deterministically;
//! - [`obs`]: serve-path observability (DESIGN.md §8) — the per-request
//!   lifecycle record and per-boundary samples collected into
//!   [`ServeObs`], the lifecycle specification every continuous run is
//!   checked against ([`conform`]), the predicted-vs-observed drift
//!   audit ([`ServeObs::audit`]), and the Perfetto serve timeline
//!   ([`serve_timeline`], one track per slot).
//!
//! Everything runs on a virtual clock in integer microseconds; a serving
//! run is a pure function of `(requests, backend, config)` — identical
//! across runs and machines, which is what makes the `repro serve`
//! experiment reproducible.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod admission;
pub mod backend;
mod baselines;
pub mod driver;
pub mod obs;
pub mod preflight;
pub mod request;
pub mod scheduler;
pub mod session;
pub mod slo;

// The serve-side checks' unit tests, under the module names they have
// always been reported by.
#[cfg(test)]
mod async_lints;
#[cfg(test)]
mod obs_lints;
#[cfg(test)]
mod paging_lints;
#[cfg(test)]
mod serve_lints;

pub use admission::{derive_plan, ServeConfig, ServeError, ServePlan};
pub use backend::{AnalyticBackend, EngineBackend, ServeBackend, StepSeq};
pub use driver::{Delivery, ServeDriver, VirtualDriver};
pub use obs::{
    conform, serve_timeline, BoundaryObs, Conformance, LifecycleEvent, RequestPhase, Rule,
    ServeObs, Transition, TtftSample, Violation, LIFECYCLE,
};
pub use request::{
    synth_shared_prefix_traffic, synth_traffic, ArrivalQueue, CancelReason, CancelToken,
    Cancellation, RejectReason, Rejection, Request, Response,
};
pub use scheduler::{ServeOutcome, ServeStats, TokenEvent};
pub use session::{AsyncConfig, ServeMode, ServeRun, ServeSession, TokenStreams};
pub use slo::{degrade_factor, geometric_ladder, DegradeRung, SloPolicy, TtftModel};
