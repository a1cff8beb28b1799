//! The experiment registry: every figure, table, bench and checker the
//! repo can run, by name. `tcd list` prints it; `tcd <name>` runs one;
//! CI's experiment table and DESIGN.md §4's index are checked against it.

use std::process::ExitCode;

use crate::cli::Args;

pub mod explore;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod modelcheck;
pub mod tab_critpath;
pub mod tab_faults;
pub mod tab_freeblock;
pub mod tab_imgstore;
pub mod tab_scale;
pub mod tab_store;
pub mod tab_swap;
pub mod tab_telemetry;
pub mod tab_timeline;
pub mod xtra_ablations;
pub mod xtra_baselines;

/// One runnable experiment.
pub struct Experiment {
    pub name: &'static str,
    pub about: &'static str,
    pub run: fn(&mut Args) -> ExitCode,
}

macro_rules! plain {
    ($name:ident, $about:literal) => {
        Experiment { name: stringify!($name), about: $about, run: |args| args.no_flags($name::run) }
    };
}

macro_rules! flagged {
    ($name:ident, $about:literal) => {
        Experiment { name: stringify!($name), about: $about, run: $name::run }
    };
}

pub static REGISTRY: [Experiment; 19] = [
    plain!(fig4, "Fig 4: usleep(10 ms) loop under 5 s periodic checkpoints"),
    plain!(fig5, "Fig 5: CPU-bound loop under checkpoints + dom0 job interference"),
    plain!(fig6, "Fig 6: iperf on a 1 Gbps link under checkpoints (zero TCP disturbance)"),
    plain!(fig7, "Fig 7: four-node BitTorrent swarm, checkpoints at 70-170 s"),
    plain!(fig8, "Fig 8: Bonnie++ on Base / Branch-Orig / Branch COW storage"),
    plain!(fig9, "Fig 9: background swap transfer vs guest disk throughput"),
    plain!(tab_swap, "§7.2: stateful swap-out/swap-in timings over four cycles"),
    plain!(tab_freeblock, "§5.1: free-block elimination of a make/make-clean delta"),
    plain!(tab_imgstore, "image-store dedup ratio vs snapshot depth"),
    plain!(tab_faults, "control-plane fault sweep: loss/delay/crash vs epoch outcomes"),
    plain!(tab_telemetry, "unified telemetry export of one full testbed run"),
    plain!(tab_timeline, "event trace, Perfetto export and guest time-transparency audit"),
    plain!(xtra_baselines, "transparent checkpointing vs conventional designs"),
    plain!(xtra_ablations, "ablations of the mechanisms DESIGN.md calls out"),
    plain!(tab_store, "store-service shard sweep in sim time: MB/s, commit latency, repairs"),
    plain!(tab_scale, "the epoch protocol on the sharded engine at 1,000-10,000 nodes"),
    plain!(tab_critpath, "per-epoch critical paths: four-segment partition of each round"),
    flagged!(explore, "randomized fault exploration vs the shadow epoch model"),
    flagged!(modelcheck, "exhaustive small-scope model check of crash recovery"),
];
