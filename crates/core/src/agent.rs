//! The per-node checkpoint agent plugged into each VM host.
//!
//! The protocol itself is [`Participant`]; this is its hook table over a
//! [`VmHost`]: bus messages ride the host's control interface, scheduled
//! checkpoints arm a local timer against the NTP-disciplined clock
//! ("Upon receiving the notification, nodes schedule their checkpoints
//! locally. Accurate local timers and clock synchronization algorithms
//! ensure precise checkpoint synchronization"), and capture / release /
//! roll-back are the host's local live checkpoint. Three things are
//! host-only: the ack's flow step on the host track, the §4.3 processing
//! jitter of event-driven triggers, and the guest-raised trigger request.

use hwsim::Frame;
use sim::telemetry::names;
use sim::{Ctx, SimDuration, TraceCtx};
use vmm::{HostAgent, VmHost};

use crate::bus::{BusMsg, BUS_MSG_BYTES};
use crate::participant::{NodeHooks, Participant};

/// The coordinated-checkpoint agent for a VM host.
pub struct CheckpointAgent {
    coordinator: hwsim::NodeAddr,
    /// Mean of the exponential processing delay applied to event-driven
    /// ("checkpoint now") triggers; zero for pure scheduled operation.
    processing_jitter_mean: SimDuration,
    /// The epoch-protocol state (and its fault-tolerance settings).
    pub participant: Participant,
}

impl CheckpointAgent {
    /// Creates an agent reporting to `coordinator`.
    pub fn new(coordinator: hwsim::NodeAddr) -> Self {
        CheckpointAgent {
            coordinator,
            processing_jitter_mean: SimDuration::ZERO,
            participant: Participant::default(),
        }
    }

    /// Adds per-node processing jitter for event-driven triggers (the
    /// stack/VMM delays of §4.3 that make "checkpoint now" imprecise).
    pub fn with_processing_jitter(mut self, mean: SimDuration) -> Self {
        self.processing_jitter_mean = mean;
        self
    }

    fn io<'a, 'c>(&self, host: &'a mut VmHost, ctx: &'a mut Ctx<'c>) -> HostIo<'a, 'c> {
        HostIo {
            host,
            ctx,
            coordinator: self.coordinator,
            jitter_mean: self.processing_jitter_mean,
        }
    }
}

/// [`NodeHooks`] over a host and the event context it is handling.
struct HostIo<'a, 'c> {
    host: &'a mut VmHost,
    ctx: &'a mut Ctx<'c>,
    coordinator: hwsim::NodeAddr,
    jitter_mean: SimDuration,
}

impl NodeHooks for HostIo<'_, '_> {
    fn send(&mut self, msg: BusMsg) {
        if let BusMsg::NotifyAck { trace, .. } = msg {
            let t = self.ctx.telemetry();
            let track = t.track(self.host.node().0, names::TRACK_VMHOST);
            let tag = t.trace_tag(names::FLOW_ACK);
            t.flow_step(track, tag, self.ctx.now(), trace);
        }
        self.host.send_ctrl(self.ctx, self.coordinator, BUS_MSG_BYTES, msg);
    }

    fn wake_at_clock_ns(&mut self, clock_ns: f64, token: u64) {
        self.host.agent_wake_at_clock_ns(self.ctx, clock_ns, token);
    }

    fn wake_after(&mut self, d: SimDuration, token: u64) {
        self.host.agent_wake_after(self.ctx, d, token);
    }

    fn trigger_delay(&mut self) -> Option<SimDuration> {
        let mean = self.jitter_mean.as_nanos() as f64;
        (mean > 0.0).then(|| SimDuration::from_nanos(self.ctx.rng().exponential(mean) as u64))
    }

    fn begin_capture(&mut self, trace: TraceCtx) -> bool {
        if self.host.checkpoint_running() {
            return false;
        }
        self.host.set_flow_ctx(trace);
        self.host.begin_checkpoint(self.ctx);
        true
    }

    fn held(&self) -> bool {
        self.host.awaiting_resume()
    }

    fn release(&mut self) {
        self.host.resume_guest(self.ctx);
    }

    fn rollback(&mut self) -> bool {
        self.host.abort_checkpoint(self.ctx)
    }

    fn request_full(&mut self) {
        self.host.request_full_checkpoint();
    }

    fn image_bytes(&self) -> u64 {
        self.host.last_image().map_or(0, |i| i.dirty_bytes)
    }
}

impl HostAgent for CheckpointAgent {
    fn on_ctrl_frame(&mut self, host: &mut VmHost, ctx: &mut Ctx<'_>, frame: &Frame) {
        if let Some(&msg) = frame.payload::<BusMsg>() {
            let mut io = self.io(host, ctx);
            self.participant.on_msg(&mut io, msg);
        }
    }

    fn on_wake(&mut self, host: &mut VmHost, ctx: &mut Ctx<'_>, token: u64) {
        let mut io = self.io(host, ctx);
        self.participant.on_wake(&mut io, token);
    }

    fn on_checkpoint_captured(&mut self, host: &mut VmHost, ctx: &mut Ctx<'_>) {
        let mut io = self.io(host, ctx);
        self.participant.on_captured(&mut io);
    }

    fn on_guest_trigger(&mut self, host: &mut VmHost, ctx: &mut Ctx<'_>) {
        host.send_ctrl(ctx, self.coordinator, BUS_MSG_BYTES, BusMsg::RequestCheckpoint);
    }
}
