//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Emulab-checkpoint reproduction: a
//! fully deterministic event simulator with nanosecond virtual time.
//! Hosts, links, delay nodes, and testbed servers are [`Component`]s
//! exchanging typed messages; identical seeds produce identical traces,
//! which is what makes the time-travel facility's deterministic replay
//! (paper §6) meaningful and lets the evaluation measure exact
//! retransmission counts rather than noise.
//!
//! There is one engine. An [`Engine`] is single-threaded and is the whole
//! world of every paper experiment; a [`ShardedEngine`] runs the same
//! components, through the same [`Ctx`], on one `Engine` per shard in
//! lookahead windows, optionally on threads, with bytes that do not
//! depend on the shard count.
//!
//! # Examples
//!
//! ```
//! use sim::{Component, Ctx, Engine, Payload, SimDuration};
//! use std::any::Any;
//!
//! struct Counter(u32);
//! struct Bump;
//!
//! impl Component for Counter {
//!     fn handle(&mut self, _ctx: &mut Ctx<'_>, _p: Payload) {
//!         self.0 += 1;
//!     }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut e = Engine::new(42);
//! let id = e.add_component(Box::new(Counter(0)));
//! e.post(id, SimDuration::from_millis(5), Bump);
//! e.run_to_completion();
//! assert_eq!(e.component_ref::<Counter>(id).unwrap().0, 1);
//! ```

pub mod buggify;
mod engine;
mod event;
mod fault;
mod inthash;
mod rng;
pub mod shard;
pub mod stats;
pub mod telemetry;
mod time;
pub mod trace;

pub use buggify::{Buggify, Preset};
pub use engine::{Component, Ctx, Engine};
pub use event::{
    fits_inline, payload_store_stats, ComponentId, EventId, Payload, PayloadStoreStats,
};
pub use shard::ShardedEngine;
pub use fault::FaultPlan;
pub use inthash::{IntHasher, IntMap};
pub use rng::SimRng;
pub use telemetry::audit::{audit_transparency, AuditReport, AuditViolation};
pub use telemetry::{
    ActiveSpan, CounterId, GaugeId, HistogramId, HistogramSummary, SpanId, SpanRecord, Telemetry,
    TraceCtx, TraceEvent, TracePhase, TraceTag, TrackId,
};
pub use time::{transmission_time, LineRate, SimDuration, SimTime};

/// Expands to the [`Component`] `as_any`/`as_any_mut` upcast boilerplate.
///
/// Invoke inside an `impl Component for T` block, after `handle`:
///
/// ```
/// use sim::{Component, Ctx, Payload};
///
/// struct Foo;
/// impl Component for Foo {
///     fn handle(&mut self, _ctx: &mut Ctx<'_>, _p: Payload) {}
///     sim::component_boilerplate!();
/// }
/// ```
#[macro_export]
macro_rules! component_boilerplate {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}
