//! Worker-process entry point for the TCP multi-process backend.
//!
//! Spawned by a TCP run of a `NativeRunner` with workers attached
//! (`NativeRunner::with_workers`), one process per map/reduce pair:
//! `imr-worker <addr> <pair> <generation> <job-id> <job> [params...]`.
//! See `imapreduce_suite::worker` for the job catalog.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = imapreduce_suite::worker::serve_from_args(&args) {
        eprintln!("imr-worker: {e}");
        std::process::exit(2);
    }
}
