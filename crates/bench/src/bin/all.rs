//! Runs the paper's evaluation: every entry of
//! [`imr_bench::EXPERIMENTS`] in order, or the one `--only <id>`
//! names. `--scale` / `--iters` override every entry's defaults.
//!
//! Usage: `cargo run -p imr-bench --release --bin all -- [--only <id>]
//! [--scale <f>] [--iters <n>] [--out <dir>]`

use imr_bench::{BenchOpts, EXPERIMENTS};

fn main() {
    let opts = BenchOpts::from_args();
    let t0 = std::time::Instant::now();
    for e in EXPERIMENTS {
        if opts.only.as_deref().is_some_and(|id| id != e.id) {
            continue;
        }
        let scale = opts.scale.unwrap_or(e.scale);
        let iters = opts.iters.unwrap_or(e.iters);
        (e.run)(e.id, scale, iters).emit(&opts.out_root);
    }
    eprintln!(
        "experiments done in {:.1}s (host time)",
        t0.elapsed().as_secs_f64()
    );
}
