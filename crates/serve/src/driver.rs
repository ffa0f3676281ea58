//! The clock/transport split (DESIGN.md §9.4): the continuous-batching
//! state machine in [`scheduler`](crate::scheduler) is pure — arrivals,
//! fates, admission, SLO actuation and retirement are all functions of
//! its virtual clock — and everything *impure* (how time advances, where
//! tokens go) is behind [`ServeDriver`].
//!
//! Two drivers exist:
//!
//! - [`VirtualDriver`] — the identity driver: `pace` returns the
//!   modelled clock unchanged and `deliver` always succeeds, so a run is
//!   a pure function of its inputs (the golden `results/serve.json`
//!   test holds it to the committed bytes).
//! - `AsyncDriver` (private to [`session`](crate::session)) — the tokio
//!   front end: `pace` sleeps until scaled wall time catches the
//!   modelled clock and returns whichever is later (wall deadlines feed
//!   the same SLO actuators), `deliver` pushes into the request's
//!   bounded mpsc channel, and a dropped receiver or exhausted
//!   backpressure grace surfaces through [`Delivery`] as the scheduler's
//!   existing disconnect/cancellation vocabulary.

use crate::scheduler::TokenEvent;

/// What happened to one streamed token at the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The client got (or will get) the token.
    Delivered,
    /// The client is gone — its receiver dropped. The scheduler resolves
    /// the request as a [`CancelReason::ClientDisconnect`]
    /// (crate::CancelReason::ClientDisconnect) cancellation at the next
    /// boundary and reclaims its KV.
    Disconnected,
    /// The client's bounded channel stayed full past the configured
    /// grace: a consumer slower than generation. Treated like a
    /// disconnect (the alternative — blocking the whole block on one
    /// slow reader — would stall every other slot's stream).
    Backpressured,
}

/// The pluggable clock + transport the scheduler core is driven by.
///
/// Contract: `pace` must be monotone (never return less than its
/// argument) and the identity implementation must be exactly that —
/// identity — so the virtual-clock path stays bit-identical.
pub trait ServeDriver {
    /// The scheduler advanced its modelled clock to `clock_us` (virtual
    /// microseconds). Returns the clock the run should proceed at; a
    /// real-time driver sleeps here until wall time catches up and may
    /// return a later value (wall jitter), a virtual driver returns the
    /// input unchanged.
    fn pace(&mut self, clock_us: u64) -> u64 {
        clock_us
    }

    /// Deliver one generated token to the request's transport.
    fn deliver(&mut self, event: TokenEvent) -> Delivery;

    /// The request reached a terminal state (response, rejection, or
    /// cancellation); a streaming transport closes its channel here so
    /// the consumer observes end-of-stream.
    fn retire(&mut self, request_id: u64) {
        let _ = request_id;
    }
}

/// The identity driver: virtual clock, synchronous callback delivery.
/// [`ServeSession::run_streaming`](crate::ServeSession::run_streaming)
/// is a thin wrapper over this, and
/// [`ServeSession::run`](crate::ServeSession::run) is that with a
/// callback that discards the tokens.
pub struct VirtualDriver<'a> {
    on_token: &'a mut dyn FnMut(TokenEvent),
}

impl<'a> VirtualDriver<'a> {
    pub fn new(on_token: &'a mut dyn FnMut(TokenEvent)) -> Self {
        VirtualDriver { on_token }
    }
}

impl ServeDriver for VirtualDriver<'_> {
    fn deliver(&mut self, event: TokenEvent) -> Delivery {
        (self.on_token)(event);
        Delivery::Delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_driver_is_the_identity() {
        let mut seen = Vec::new();
        let mut cb = |e: TokenEvent| seen.push(e.token);
        let mut d = VirtualDriver::new(&mut cb);
        assert_eq!(d.pace(123), 123);
        assert_eq!(
            d.deliver(TokenEvent {
                request_id: 1,
                index: 0,
                token: 42,
                t_us: 5
            }),
            Delivery::Delivered
        );
        d.retire(1); // no-op
        assert_eq!(seen, vec![42]);
    }
}
