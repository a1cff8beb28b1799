//! The flight recorder's replayability contract: a dump written at
//! failure time is byte-for-byte the dump a later replay of the printed
//! seed produces. Without that, the black box is a screenshot; with it,
//! it is evidence.

use tcd_bench::explore::run_seed;
use tcd_bench::flightrec;
use sim::Preset;

/// The corpus' known-violation case: seed 5 under calm with sabotage
/// (node 1's `shadow.done` instants scrubbed) trips `CommitIncomplete`.
fn known_violation() -> tcd_bench::explore::IterationOutcome {
    let out = run_seed(5, Some(Preset::Calm), true);
    assert!(!out.violations.is_empty(), "known-violation seed ran clean");
    out
}

#[test]
fn dump_sections_cover_the_black_box() {
    let out = known_violation();
    let dump = flightrec::render(&out, "test", true);
    for section in [
        "=== FLIGHT RECORDER",
        "=== SHADOW",
        "=== WAL TAIL",
        "=== TRACE TAIL",
        "=== TELEMETRY",
    ] {
        assert!(dump.contains(section), "dump missing section {section}");
    }
    assert!(
        dump.contains("repro: cargo run --release -p tcd-bench -- explore \
                       --replay-seed=5 --preset=calm --sabotage"),
        "dump must carry the replay command line"
    );
    assert!(dump.contains("RoundOpen"), "WAL tail must show round frames");
}

#[test]
fn wal_tail_and_shadow_summary_replay_byte_for_byte() {
    // The live run's dump vs. the dump a fresh process would build from
    // the repro seed: the WAL tail and shadow summary must match
    // exactly, or the black box cannot be trusted as a repro claim.
    let live = known_violation();
    let replayed = known_violation();
    assert_eq!(
        flightrec::wal_tail(&live),
        flightrec::wal_tail(&replayed),
        "WAL tails diverged between live run and replay"
    );
    assert_eq!(
        flightrec::shadow_summary(&live),
        flightrec::shadow_summary(&replayed),
        "shadow summaries diverged between live run and replay"
    );
    assert_eq!(
        flightrec::render(&live, "r", true),
        flightrec::render(&replayed, "r", true),
        "full dumps diverged between live run and replay"
    );
}

#[test]
fn write_dump_lands_under_results() {
    let out = known_violation();
    let path = flightrec::write_dump(&out, "test", true);
    let bytes = std::fs::read_to_string(&path).expect("dump readable");
    assert_eq!(bytes, flightrec::render(&out, "test", true));
    assert!(path.file_name().unwrap().to_str().unwrap().starts_with("flightrec-"));
}
