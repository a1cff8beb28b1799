//! A single Dummynet pipe: droptail queue → bandwidth server → delay line.

use std::collections::VecDeque;

use ckptstore::{Dec, DecodeError, Enc};
use hwsim::Frame;
use sim::{LineRate, SimDuration, SimRng, SimTime};

/// Shaping parameters for one pipe (one direction of an emulated link).
#[derive(Clone, Copy, Debug)]
pub struct PipeConfig {
    /// Bandwidth limit; `None` shapes only delay/loss.
    pub bandwidth_bps: Option<u64>,
    /// One-way propagation delay added after bandwidth service.
    pub delay: SimDuration,
    /// Random packet-loss rate in `[0, 1]`.
    pub plr: f64,
    /// Droptail queue capacity, in packets (Dummynet default is 50 slots).
    pub queue_slots: usize,
}

impl PipeConfig {
    /// A pipe that forwards unshaped (used for plumbing tests).
    pub fn passthrough() -> Self {
        PipeConfig {
            bandwidth_bps: None,
            delay: SimDuration::ZERO,
            plr: 0.0,
            queue_slots: 50,
        }
    }

    /// Serializes the shaping parameters.
    pub fn encode_wire(&self, e: &mut Enc) {
        e.bool(self.bandwidth_bps.is_some());
        if let Some(bw) = self.bandwidth_bps {
            e.u64(bw);
        }
        e.u64(self.delay.as_nanos());
        e.f64(self.plr);
        e.u64(self.queue_slots as u64);
    }

    /// Inverse of [`PipeConfig::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let bandwidth_bps = if d.bool()? { Some(d.u64()?) } else { None };
        if bandwidth_bps == Some(0) {
            return Err(DecodeError::Invalid("zero-bandwidth pipe"));
        }
        let delay = SimDuration::from_nanos(d.u64()?);
        let plr = d.f64()?;
        if !(0.0..=1.0).contains(&plr) {
            return Err(DecodeError::Invalid("pipe plr out of range"));
        }
        let queue_slots = d.u64()? as usize;
        if queue_slots == 0 {
            return Err(DecodeError::Invalid("zero-slot pipe queue"));
        }
        Ok(PipeConfig { bandwidth_bps, delay, plr, queue_slots })
    }
}

/// Result of offering a frame to a pipe.
#[derive(Clone, Copy, Debug)]
pub enum EnqueueOutcome {
    /// Accepted; it will be ready to emit at this time.
    Queued { ready: SimTime },
    /// Dropped: the bandwidth queue was full.
    DroppedQueue,
    /// Dropped: random loss.
    DroppedLoss,
    /// The owning instance was suspended; the arrival was logged instead.
    LoggedSuspended,
}

/// Per-pipe counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipeStats {
    pub forwarded: u64,
    pub bytes_forwarded: u64,
    pub dropped_queue: u64,
    pub dropped_loss: u64,
}

/// A queued packet with its precomputed service milestones.
///
/// For a work-conserving FIFO server, departure (end of bandwidth service)
/// and readiness (departure + delay) can be computed at enqueue time, which
/// keeps the pipe a passive data structure.
#[derive(Clone, Debug)]
struct Entry {
    departure: SimTime,
    ready: SimTime,
    frame: Frame,
}

/// One shaping pipe.
#[derive(Clone)]
pub struct Pipe {
    cfg: PipeConfig,
    /// The bandwidth server's rate, from `cfg.bandwidth_bps`.
    rate: Option<LineRate>,
    busy_until: SimTime,
    /// FIFO, with departures that never decrease front to back: a shaped
    /// departure is `max(busy_until, now) + tx`, an unshaped one is `now`,
    /// and `shift` (applied as the clock moves by the same downtime) and
    /// `restore` move every entry alike.
    in_flight: VecDeque<Entry>,
    /// Counters exposed for experiment post-processing.
    pub stats: PipeStats,
}

/// Serialized pipe state with times as offsets from the capture instant.
#[derive(Clone)]
pub struct PipeImage {
    cfg: PipeConfig,
    busy_off: SimDuration,
    entries: Vec<(SimDuration, SimDuration, Frame)>,
}

impl PipeImage {
    /// Approximate byte size (queued packet bytes + metadata).
    pub fn byte_size(&self) -> u64 {
        self.entries
            .iter()
            .map(|(_, _, f)| f.wire_bytes as u64 + 24)
            .sum::<u64>()
            + 48
    }

    /// Number of captured packets.
    pub fn packets(&self) -> usize {
        self.entries.len()
    }

    /// Serializes the pipe image. Frames carry type-erased payloads, so
    /// they ride in the `frames` side-table; the stream stores indices.
    pub fn encode_wire(&self, e: &mut Enc, frames: &mut Vec<Frame>) {
        self.cfg.encode_wire(e);
        e.u64(self.busy_off.as_nanos());
        e.seq(self.entries.len());
        for (dep, ready, f) in &self.entries {
            e.u64(dep.as_nanos());
            e.u64(ready.as_nanos());
            e.u32(frames.len() as u32);
            frames.push(f.clone());
        }
    }

    /// Inverse of [`PipeImage::encode_wire`].
    pub fn decode_wire(d: &mut Dec<'_>, frames: &[Frame]) -> Result<Self, DecodeError> {
        let cfg = PipeConfig::decode_wire(d)?;
        let busy_off = SimDuration::from_nanos(d.u64()?);
        let n = d.seq()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let dep = SimDuration::from_nanos(d.u64()?);
            let ready = SimDuration::from_nanos(d.u64()?);
            let frame = frames
                .get(d.u32()? as usize)
                .cloned()
                .ok_or(DecodeError::Invalid("frame residue index out of range"))?;
            entries.push((dep, ready, frame));
        }
        Ok(PipeImage { cfg, busy_off, entries })
    }
}

impl Pipe {
    /// Creates an idle pipe.
    ///
    /// # Panics
    ///
    /// Panics on a loss rate outside `[0, 1]`, a zero-slot queue or a zero
    /// bandwidth.
    pub fn new(cfg: PipeConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.plr), "plr out of range");
        assert!(cfg.queue_slots > 0, "zero-slot queue");
        Pipe {
            cfg,
            rate: cfg.bandwidth_bps.map(LineRate::new),
            busy_until: SimTime::ZERO,
            in_flight: VecDeque::new(),
            stats: PipeStats::default(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> PipeConfig {
        self.cfg
    }

    /// Number of packets still waiting for bandwidth service at `now`.
    pub fn queue_len(&self, now: SimTime) -> usize {
        // Departures are sorted, so the waiting packets are a suffix:
        // counted from the back, O(queued) rather than O(buffered).
        self.in_flight.iter().rev().take_while(|e| e.departure > now).count()
    }

    /// Total packets buffered in the pipe (queue + delay line).
    pub fn buffered(&self) -> usize {
        self.in_flight.len()
    }

    /// Offers a frame at time `now`.
    pub fn enqueue(&mut self, now: SimTime, frame: Frame, rng: &mut SimRng) -> EnqueueOutcome {
        if self.cfg.plr > 0.0 && rng.chance(self.cfg.plr) {
            self.stats.dropped_loss += 1;
            return EnqueueOutcome::DroppedLoss;
        }
        if self.rate.is_some() && self.queue_len(now) >= self.cfg.queue_slots {
            self.stats.dropped_queue += 1;
            return EnqueueOutcome::DroppedQueue;
        }
        let departure = match &mut self.rate {
            Some(rate) => {
                let start = self.busy_until.max(now);
                self.busy_until = start + rate.transmission_time(frame.wire_bytes as u64);
                self.busy_until
            }
            None => now,
        };
        let ready = departure + self.cfg.delay;
        self.stats.forwarded += 1;
        self.stats.bytes_forwarded += frame.wire_bytes as u64;
        self.in_flight.push_back(Entry {
            departure,
            ready,
            frame,
        });
        EnqueueOutcome::Queued { ready }
    }

    /// Earliest readiness among buffered packets.
    pub fn next_ready(&self) -> Option<SimTime> {
        // FIFO discipline ⇒ the head is the earliest.
        self.in_flight.front().map(|e| e.ready)
    }

    /// Removes all packets ready at `now`, handing each to `sink` in order.
    pub fn pop_ready(&mut self, now: SimTime, mut sink: impl FnMut(Frame)) {
        while self.in_flight.front().is_some_and(|e| e.ready <= now) {
            sink(self.in_flight.pop_front().expect("head vanished").frame);
        }
    }

    /// Shifts every internal deadline forward by `delta` (checkpoint time
    /// virtualization: the downtime never happened, as far as packet
    /// scheduling is concerned).
    pub fn shift(&mut self, delta: SimDuration) {
        self.busy_until += delta;
        for e in &mut self.in_flight {
            e.departure += delta;
            e.ready += delta;
        }
    }

    /// Captures the pipe relative to instant `at` (non-destructive).
    pub fn serialize(&self, at: SimTime) -> PipeImage {
        PipeImage {
            cfg: self.cfg,
            busy_off: self.busy_until.saturating_duration_since(at),
            entries: self
                .in_flight
                .iter()
                .map(|e| {
                    (
                        e.departure.saturating_duration_since(at),
                        e.ready.saturating_duration_since(at),
                        e.frame.clone(),
                    )
                })
                .collect(),
        }
    }

    /// Rebuilds a pipe from an image, rebasing offsets onto `now`.
    pub fn restore(image: &PipeImage, now: SimTime) -> Self {
        Pipe {
            cfg: image.cfg,
            rate: image.cfg.bandwidth_bps.map(LineRate::new),
            busy_until: now + image.busy_off,
            in_flight: image
                .entries
                .iter()
                .map(|(dep, ready, f)| Entry {
                    departure: now + *dep,
                    ready: now + *ready,
                    frame: f.clone(),
                })
                .collect(),
            stats: PipeStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::NodeAddr;

    fn frame(bytes: u32) -> Frame {
        Frame::new(NodeAddr(1), NodeAddr(2), bytes, ())
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn mbps(n: u64) -> Option<u64> {
        Some(n * 1_000_000)
    }

    #[test]
    fn droptail_kicks_in_at_queue_limit() {
        let mut p = Pipe::new(PipeConfig {
            bandwidth_bps: mbps(8), // 1 µs per byte
            delay: SimDuration::ZERO,
            plr: 0.0,
            queue_slots: 3,
        });
        let mut rng = SimRng::from_seed(1);
        let mut dropped = 0;
        for _ in 0..10 {
            if matches!(
                p.enqueue(t(0), frame(1000), &mut rng),
                EnqueueOutcome::DroppedQueue
            ) {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 7, "3 slots: rest dropped");
        assert_eq!(p.stats.dropped_queue, 7);
        assert_eq!(p.stats.forwarded, 3);
    }

    #[test]
    fn queue_drains_over_time_allowing_new_arrivals() {
        let mut p = Pipe::new(PipeConfig {
            bandwidth_bps: mbps(8),
            delay: SimDuration::ZERO,
            plr: 0.0,
            queue_slots: 1,
        });
        let mut rng = SimRng::from_seed(1);
        assert!(matches!(p.enqueue(t(0), frame(1000), &mut rng), EnqueueOutcome::Queued { .. }));
        assert!(matches!(p.enqueue(t(0), frame(1000), &mut rng), EnqueueOutcome::DroppedQueue));
        // After the first departs (1000 µs), a slot frees up.
        assert!(matches!(
            p.enqueue(t(1001), frame(1000), &mut rng),
            EnqueueOutcome::Queued { .. }
        ));
    }

    #[test]
    fn measured_throughput_matches_configured_bandwidth() {
        // Offer 2x the configured 8 Mbps and measure the drain rate.
        let mut p = Pipe::new(PipeConfig {
            bandwidth_bps: mbps(8),
            delay: SimDuration::from_millis(5),
            plr: 0.0,
            queue_slots: 100,
        });
        let mut rng = SimRng::from_seed(2);
        let mut now = SimTime::ZERO;
        let mut delivered_bytes = 0u64;
        let mut last_ready = SimTime::ZERO;
        // Offer 1000-byte frames every 500 µs (16 Mbps offered) for 1 s.
        for _ in 0..2000 {
            if let EnqueueOutcome::Queued { ready } = p.enqueue(now, frame(1000), &mut rng) {
                last_ready = last_ready.max(ready);
            }
            now += SimDuration::from_micros(500);
        }
        p.pop_ready(last_ready, |f| delivered_bytes += f.wire_bytes as u64);
        assert_eq!(p.buffered(), 0, "everything accepted was ready by then");
        let elapsed = last_ready.as_secs_f64();
        let rate_bps = delivered_bytes as f64 * 8.0 / elapsed;
        assert!(
            (rate_bps - 8e6).abs() / 8e6 < 0.02,
            "measured {rate_bps} bps, configured 8e6"
        );
    }

    #[test]
    fn plr_drops_statistically() {
        let mut p = Pipe::new(PipeConfig {
            bandwidth_bps: None,
            delay: SimDuration::ZERO,
            plr: 0.3,
            queue_slots: 50,
        });
        let mut rng = SimRng::from_seed(3);
        for _ in 0..1000 {
            let _ = p.enqueue(t(0), frame(100), &mut rng);
        }
        let lost = p.stats.dropped_loss;
        assert!((200..400).contains(&lost), "lost {lost} of 1000 at plr 0.3");
    }

    #[test]
    fn delay_only_pipe_preserves_spacing() {
        let mut p = Pipe::new(PipeConfig {
            bandwidth_bps: None,
            delay: SimDuration::from_millis(10),
            plr: 0.0,
            queue_slots: 50,
        });
        let mut rng = SimRng::from_seed(4);
        for i in 0..3u64 {
            let out = p.enqueue(t(i * 100), frame(100), &mut rng);
            match out {
                EnqueueOutcome::Queued { ready } => {
                    assert_eq!(ready, t(i * 100 + 10_000), "pure delay line");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut p = Pipe::new(PipeConfig {
            bandwidth_bps: mbps(8),
            delay: SimDuration::from_millis(1),
            plr: 0.0,
            queue_slots: 50,
        });
        let mut rng = SimRng::from_seed(5);
        for i in 0..10u32 {
            let f = Frame::new(NodeAddr(1), NodeAddr(2), 500, i);
            let _ = p.enqueue(t(0), f, &mut rng);
        }
        let mut tags = Vec::new();
        p.pop_ready(t(1_000_000), |f| tags.push(*f.payload::<u32>().unwrap()));
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    fn zero_rate() -> PipeConfig {
        PipeConfig { bandwidth_bps: Some(0), ..PipeConfig::passthrough() }
    }

    #[test]
    fn a_zero_bandwidth_config_does_not_decode() {
        let mut e = Enc::new();
        zero_rate().encode_wire(&mut e);
        let bytes = e.into_bytes();
        assert!(PipeConfig::decode_wire(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn a_zero_bandwidth_pipe_is_refused_when_built() {
        let _ = Pipe::new(zero_rate());
    }

    /// What `queue_len` counted when it scanned the whole buffer.
    fn queue_len_by_scan(p: &Pipe, now: SimTime) -> usize {
        p.in_flight.iter().filter(|e| e.departure > now).count()
    }

    /// `queue_len` against the full scan, over random runs of every
    /// operation that moves departures, on shaped and unshaped pipes:
    /// arrivals (some lost to `plr`, some dropped at the tail), service, a
    /// checkpoint's shift (the clock moves by the same downtime, as in
    /// `Dummynet::resume`), and a serialize/restore round trip.
    #[test]
    fn queue_len_counts_what_a_full_scan_counts() {
        let cfg = |g: &mut SimRng| PipeConfig {
            bandwidth_bps: (!g.chance(0.25)).then(|| g.range_u64(1, 100) * 1_000_000),
            delay: SimDuration::from_micros(g.range_u64(0, 2_000)),
            plr: if g.chance(0.3) { 0.2 } else { 0.0 },
            queue_slots: g.range_u64(1, 40) as usize,
        };
        let (mut backlogged_probes, mut drops) = (0, 0);
        for case in 0..200 {
            let mut g = SimRng::for_component(0x0D1F, case);
            let mut rng = SimRng::from_seed(u64::from(case));
            let mut p = Pipe::new(cfg(&mut g));
            let mut now = SimTime::ZERO;
            for step in 0..400 {
                let later = now + SimDuration::from_micros(g.range_u64(0, 3_000));
                for probe in [now, later] {
                    let want = queue_len_by_scan(&p, probe);
                    assert_eq!(p.queue_len(probe), want, "case {case} step {step}");
                    if want > 0 && want < p.buffered() {
                        backlogged_probes += 1;
                    }
                }
                match g.range_u64(0, 100) {
                    0..=59 => {
                        let f = frame(g.range_u64(40, 1_500) as u32);
                        if let EnqueueOutcome::DroppedQueue = p.enqueue(now, f, &mut rng) {
                            drops += 1;
                        }
                    }
                    60..=79 => {
                        now += SimDuration::from_micros(g.range_u64(0, 500));
                        p.pop_ready(now, drop);
                    }
                    80..=89 => {
                        let d = SimDuration::from_micros(g.range_u64(0, 5_000));
                        p.shift(d);
                        now += d;
                    }
                    _ => {
                        let image = p.serialize(now);
                        now += SimDuration::from_micros(g.range_u64(0, 10_000));
                        p = Pipe::restore(&image, now);
                    }
                }
            }
        }
        assert!(drops > 0, "the tail drop must be exercised");
        // Probes that see a queue behind packets already in the delay line.
        assert!(backlogged_probes > 1_000, "{backlogged_probes}");
    }

    #[test]
    fn shift_moves_everything_uniformly() {
        let mut p = Pipe::new(PipeConfig {
            bandwidth_bps: mbps(8),
            delay: SimDuration::from_millis(1),
            plr: 0.0,
            queue_slots: 50,
        });
        let mut rng = SimRng::from_seed(6);
        let before = match p.enqueue(t(0), frame(1000), &mut rng) {
            EnqueueOutcome::Queued { ready } => ready,
            other => panic!("unexpected {other:?}"),
        };
        p.shift(SimDuration::from_secs(3));
        assert_eq!(p.next_ready(), Some(before + SimDuration::from_secs(3)));
    }
}
