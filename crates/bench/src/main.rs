//! `tcd` — the one binary of `tcd-bench`; see [`tcd_bench::cli`].

fn main() -> std::process::ExitCode {
    tcd_bench::cli::main(std::env::args().skip(1))
}
