//! Buggify: seeded probabilistic fault injection at IO and control seams.
//!
//! Ported discipline from FoundationDB's simulation testing: every seam
//! where reality can misbehave (a LAN frame, a retry timer, a storage
//! write, a swap transfer) carries a named *buggify point*. When a run is
//! armed, each point fires with a small probability drawn from its own
//! seeded stream; when disarmed (the default), every point is a single
//! branch and no stream is ever consumed.
//!
//! Determinism contract: each point draws from a stream derived from
//! `(root seed, point name)` — never from a component's stream — so
//! arming one point, or adding a new one, cannot perturb the draws seen
//! by any other point or component. Identical `(seed, preset, forces)`
//! therefore produce identical fault schedules, which is what lets the
//! explorer replay a failing iteration byte-identically from its printed
//! seed.
//!
//! The handle is a cheap-clone `Rc<RefCell<_>>`, mirroring
//! [`Telemetry`](crate::telemetry::Telemetry): the engine owns one, every
//! component reaches it through [`Ctx::buggify`](crate::Ctx::buggify),
//! and non-component layers (stores, the testbed facade) hold clones.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::rng::SimRng;
use crate::stats::fnv1a;

/// Aggressiveness preset scaling every point's base probability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Rare faults: long stretches of clean behaviour with the odd blip.
    Calm,
    /// Base probabilities as annotated at the call sites.
    Moderate,
    /// Everything misbehaves often; stresses retry/degrade paths.
    Chaos,
}

impl Preset {
    /// Multiplier applied to the probability named at the call site.
    pub fn scale(self) -> f64 {
        match self {
            Preset::Calm => 0.2,
            Preset::Moderate => 1.0,
            Preset::Chaos => 5.0,
        }
    }

    /// Parses the CLI spelling (`calm` / `moderate` / `chaos`).
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "calm" => Some(Preset::Calm),
            "moderate" => Some(Preset::Moderate),
            "chaos" => Some(Preset::Chaos),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Calm => "calm",
            Preset::Moderate => "moderate",
            Preset::Chaos => "chaos",
        }
    }
}

/// The fault catalog: every buggify point in the tree, with its base
/// probability (the value used under [`Preset::Moderate`]).
///
/// Call sites pass these constants to [`buggify!`](crate::buggify!); the
/// catalog is the one place to see what can be injected where.
pub mod points {
    /// ControlLan drops an outbound frame.
    pub const LAN_SEND_DROP: &str = "lan.send_drop";
    /// ControlLan delivers a duplicate of an outbound frame.
    pub const LAN_SEND_DUP: &str = "lan.send_dup";
    /// ControlLan delays a frame well beyond its jitter model.
    pub const LAN_SEND_DELAY: &str = "lan.send_delay";
    /// Coordinator's ack-retry timer fires late.
    pub const COORD_RETRY_SKEW: &str = "coord.retry_skew";
    /// Coordinator's periodic kick fires late.
    pub const COORD_KICK_SKEW: &str = "coord.kick_skew";
    /// Coordinator process crashes after opening a round but before the
    /// notifications leave (the WAL has the round, the nodes do not).
    pub const COORD_CRASH_PRE_NOTIFY: &str = "coord.crash_pre_notify";
    /// Coordinator process crashes while collecting acks/dones.
    pub const COORD_CRASH_MID_ACKS: &str = "coord.crash_mid_acks";
    /// Coordinator process crashes at a completed barrier before the
    /// commit record is durable (recovery must roll the round forward).
    pub const COORD_CRASH_PRE_RESUME: &str = "coord.crash_pre_resume";
    /// Coordinator process crashes after the commit is durable but
    /// before the resume publishes (recovery must release the barrier).
    pub const COORD_CRASH_POST_COMMIT: &str = "coord.crash_post_commit";
    /// A store put silently corrupts one stored replica.
    pub const STORE_PUT_CORRUPT: &str = "store.put_corrupt";
    /// A store load returns through the slow path (re-verifies).
    pub const STORE_GET_SLOW: &str = "store.get_slow";
    /// A store scrub (or redundancy-rebuild) pass silently does nothing.
    pub const STORE_SCRUB_SKIP: &str = "store.scrub_skip";
    /// A store shard drops a replica write (the put still commits at
    /// quorum; the copy lands on the background repair queue).
    pub const STORE_SHARD_FAIL: &str = "store.shard_fail";
    /// Delay node is slow to suspend for a checkpoint.
    pub const DN_SUSPEND_STALL: &str = "dn.suspend_stall";
    /// Delay node is slow to drain its replay log at resume.
    pub const DN_DRAIN_STALL: &str = "dn.drain_stall";
    /// Stateful swap-out corrupts the stored node image.
    pub const SWAP_PUT_CORRUPT: &str = "swap.put_corrupt";
    /// Stateful swap-in stalls on the final state transfer.
    pub const SWAP_IN_STALL: &str = "swap.in_stall";
    /// Golden-image fetch loses the server cache and refetches.
    pub const GOLDEN_REFETCH: &str = "golden.refetch";

    /// `(point, base probability under Moderate)` for every point above.
    pub const CATALOG: &[(&str, f64)] = &[
        (LAN_SEND_DROP, 0.02),
        (LAN_SEND_DUP, 0.02),
        (LAN_SEND_DELAY, 0.05),
        (COORD_RETRY_SKEW, 0.05),
        (COORD_KICK_SKEW, 0.02),
        (COORD_CRASH_PRE_NOTIFY, 0.01),
        (COORD_CRASH_MID_ACKS, 0.002),
        (COORD_CRASH_PRE_RESUME, 0.005),
        (COORD_CRASH_POST_COMMIT, 0.005),
        (STORE_PUT_CORRUPT, 0.01),
        (STORE_GET_SLOW, 0.05),
        (STORE_SCRUB_SKIP, 0.05),
        (STORE_SHARD_FAIL, 0.02),
        (DN_SUSPEND_STALL, 0.05),
        (DN_DRAIN_STALL, 0.05),
        (SWAP_PUT_CORRUPT, 0.01),
        (SWAP_IN_STALL, 0.05),
        (GOLDEN_REFETCH, 0.02),
    ];

    /// Base probability of a cataloged point; 0 for unknown names (an
    /// uncataloged point never fires through the one-argument macro form).
    pub fn base_prob(point: &str) -> f64 {
        CATALOG
            .iter()
            .find(|(name, _)| *name == point)
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }
}

/// Per-point activity, for reports and explorer summaries.
#[derive(Clone, Debug)]
pub struct PointReport {
    /// The point's catalog name.
    pub point: String,
    /// Times the point was evaluated.
    pub evals: u64,
    /// Times it fired.
    pub fires: u64,
}

struct PointState {
    rng: SimRng,
    /// Probability override installed by [`Buggify::force`]; wins over
    /// both the call-site probability and the preset scale.
    forced: Option<f64>,
    evals: u64,
    fires: u64,
}

struct Inner {
    enabled: bool,
    /// Set when [`Buggify::force`] armed a disarmed registry: points
    /// without an explicit override stay at probability zero, so a
    /// targeted test fires exactly the faults it asked for.
    forced_only: bool,
    seed: u64,
    preset: Preset,
    points: HashMap<String, PointState>,
}

impl Inner {
    fn point_state(&mut self, point: &str) -> &mut PointState {
        let seed = self.seed;
        self.points.entry(point.to_owned()).or_insert_with(|| PointState {
            rng: SimRng::from_seed(seed ^ fnv1a(point.as_bytes())),
            forced: None,
            evals: 0,
            fires: 0,
        })
    }
}

/// Cheap-clone handle to the engine's fault-injection registry.
///
/// Disabled by default: [`Buggify::fire`] is then a single branch and
/// consumes no randomness. Arm a run with [`Buggify::armed`].
#[derive(Clone)]
pub struct Buggify {
    inner: Rc<RefCell<Inner>>,
}

impl Buggify {
    /// A disarmed registry: every point evaluates to `false` for free.
    pub fn disabled() -> Self {
        Buggify {
            inner: Rc::new(RefCell::new(Inner {
                enabled: false,
                forced_only: false,
                seed: 0,
                preset: Preset::Moderate,
                points: HashMap::new(),
            })),
        }
    }

    /// An armed registry under `seed` and `preset`.
    pub fn armed(seed: u64, preset: Preset) -> Self {
        Buggify {
            inner: Rc::new(RefCell::new(Inner {
                enabled: true,
                forced_only: false,
                seed,
                preset,
                points: HashMap::new(),
            })),
        }
    }

    /// True when faults can fire.
    pub fn is_armed(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// The active preset.
    pub fn preset(&self) -> Preset {
        self.inner.borrow().preset
    }

    /// Evaluates the point: fires with probability
    /// `clamp(prob × preset.scale())`, or the forced probability if one
    /// is installed. Call through [`buggify!`](crate::buggify!) so the
    /// catalog name stays greppable.
    pub fn fire(&self, point: &str, prob: f64) -> bool {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            return false;
        }
        let scale = if inner.forced_only { 0.0 } else { inner.preset.scale() };
        let st = inner.point_state(point);
        st.evals += 1;
        let p = st.forced.unwrap_or((prob * scale).clamp(0.0, 1.0));
        // `chance` draws nothing at p==0 or p==1, so forcing a point on
        // or off never consumes from its stream.
        let hit = st.rng.chance(p);
        if hit {
            st.fires += 1;
        }
        hit
    }

    /// Uniform draw in `[lo, hi)` from the point's stream, for fault
    /// *magnitudes* (how long a stall, which byte to flip). Returns `lo`
    /// without drawing when the registry is disarmed, so the usual
    /// pattern `if buggify!(..) { let ns = bg.magnitude(..); }` costs
    /// nothing on clean runs.
    pub fn magnitude(&self, point: &str, lo: u64, hi: u64) -> u64 {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled || lo + 1 >= hi {
            return lo;
        }
        inner.point_state(point).rng.range_u64(lo, hi)
    }

    /// Installs a probability override for one point (1.0 = always fire,
    /// 0.0 = never), used by targeted tests to aim a single fault.
    /// Forcing a *disarmed* registry arms it in forced-only mode: points
    /// without an override stay at probability zero, so only the forced
    /// faults can fire.
    pub fn force(&self, point: &str, prob: f64) {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            inner.enabled = true;
            inner.forced_only = true;
        }
        inner.point_state(point).forced = Some(prob.clamp(0.0, 1.0));
    }

    /// Removes a [`Buggify::force`] override.
    pub fn clear_force(&self, point: &str) {
        if let Some(st) = self.inner.borrow_mut().points.get_mut(point) {
            st.forced = None;
        }
    }

    /// Per-point activity, sorted by name for stable output.
    pub fn report(&self) -> Vec<PointReport> {
        let inner = self.inner.borrow();
        let mut out: Vec<PointReport> = inner
            .points
            .iter()
            .map(|(name, st)| PointReport {
                point: name.clone(),
                evals: st.evals,
                fires: st.fires,
            })
            .collect();
        out.sort_by(|a, b| a.point.cmp(&b.point));
        out
    }

    /// Total fires across all points.
    pub fn total_fires(&self) -> u64 {
        self.inner.borrow().points.values().map(|s| s.fires).sum()
    }
}

impl Default for Buggify {
    fn default() -> Self {
        Buggify::disabled()
    }
}

impl std::fmt::Debug for Buggify {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Buggify")
            .field("enabled", &inner.enabled)
            .field("seed", &inner.seed)
            .field("preset", &inner.preset)
            .field("points", &inner.points.len())
            .finish()
    }
}

/// Evaluates a buggify point against a [`Buggify`] handle.
///
/// Two forms:
/// - `buggify!(bg, POINT)` — fires at the point's catalog base
///   probability (× preset scale);
/// - `buggify!(bg, POINT, prob)` — fires at an explicit base probability
///   (× preset scale).
///
/// Both return `bool`; a disarmed handle always returns `false` without
/// consuming randomness.
#[macro_export]
macro_rules! buggify {
    ($bg:expr, $point:expr) => {
        $bg.fire($point, $crate::buggify::points::base_prob($point))
    };
    ($bg:expr, $point:expr, $prob:expr) => {
        $bg.fire($point, $prob)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires_and_counts_nothing() {
        let bg = Buggify::disabled();
        for _ in 0..100 {
            assert!(!buggify!(bg, points::LAN_SEND_DROP));
        }
        assert!(bg.report().is_empty());
        assert_eq!(bg.total_fires(), 0);
    }

    #[test]
    fn armed_same_seed_same_schedule() {
        let run = |seed| {
            let bg = Buggify::armed(seed, Preset::Chaos);
            (0..1000)
                .map(|_| buggify!(bg, points::LAN_SEND_DROP))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn points_have_independent_streams() {
        // Evaluating an unrelated point must not shift another point's
        // schedule: interleave evaluations of B into one of two
        // otherwise-identical runs and compare A's schedule.
        let bare = {
            let bg = Buggify::armed(3, Preset::Chaos);
            (0..500)
                .map(|_| buggify!(bg, points::LAN_SEND_DROP))
                .collect::<Vec<bool>>()
        };
        let interleaved = {
            let bg = Buggify::armed(3, Preset::Chaos);
            (0..500)
                .map(|_| {
                    let _ = buggify!(bg, points::STORE_PUT_CORRUPT);
                    buggify!(bg, points::LAN_SEND_DROP)
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(bare, interleaved);
    }

    #[test]
    fn presets_order_fire_rates() {
        let rate = |preset| {
            let bg = Buggify::armed(11, preset);
            let n = 20_000;
            let hits = (0..n)
                .filter(|_| buggify!(bg, points::LAN_SEND_DELAY))
                .count();
            hits as f64 / n as f64
        };
        let calm = rate(Preset::Calm);
        let moderate = rate(Preset::Moderate);
        let chaos = rate(Preset::Chaos);
        assert!(calm < moderate, "calm {calm} !< moderate {moderate}");
        assert!(moderate < chaos, "moderate {moderate} !< chaos {chaos}");
    }

    #[test]
    fn force_fires_always_and_only_that_point() {
        let bg = Buggify::disabled();
        bg.force(points::SWAP_PUT_CORRUPT, 1.0);
        for _ in 0..10 {
            assert!(buggify!(bg, points::SWAP_PUT_CORRUPT));
        }
        // Forcing a disarmed registry arms it forced-only: un-forced
        // points stay silent even under their catalog probability.
        for _ in 0..500 {
            assert!(!buggify!(bg, points::LAN_SEND_DROP));
        }
        assert_eq!(bg.total_fires(), 10);
        bg.clear_force(points::SWAP_PUT_CORRUPT);
        assert!(!buggify!(bg, points::SWAP_PUT_CORRUPT), "cleared override");
    }

    #[test]
    fn report_counts_evals_and_fires() {
        let bg = Buggify::armed(5, Preset::Chaos);
        for _ in 0..200 {
            let _ = buggify!(bg, points::LAN_SEND_DROP);
        }
        let rep = bg.report();
        assert_eq!(rep.len(), 1);
        assert_eq!(rep[0].point, points::LAN_SEND_DROP);
        assert_eq!(rep[0].evals, 200);
        assert!(rep[0].fires > 0, "chaos-scaled 2% over 200 evals");
        assert!(rep[0].fires < 200);
    }

    #[test]
    fn magnitude_is_deterministic_and_bounded() {
        let bg = Buggify::armed(9, Preset::Moderate);
        let a: Vec<u64> = (0..50).map(|_| bg.magnitude("m.test", 10, 20)).collect();
        let bg2 = Buggify::armed(9, Preset::Moderate);
        let b: Vec<u64> = (0..50).map(|_| bg2.magnitude("m.test", 10, 20)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (10..20).contains(&x)));
        let off = Buggify::disabled();
        assert_eq!(off.magnitude("m.test", 10, 20), 10);
    }

    #[test]
    fn catalog_base_probs_are_sane() {
        for &(name, p) in points::CATALOG {
            assert!(p > 0.0 && p < 0.5, "{name} base prob {p} out of range");
            assert_eq!(points::base_prob(name), p);
        }
        assert_eq!(points::base_prob("not.a.point"), 0.0);
    }
}
