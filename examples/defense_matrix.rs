//! Regenerates the full experiment tables of the reproduction: the
//! E2 catalogue, the E3 attack × countermeasure matrix, the E4 ASLR
//! sweep, the E5 overhead table and the E6 analysis table.
//!
//! ```text
//! cargo run --release --example defense_matrix
//! ```

use swsec::cache::ProgramCache;
use swsec::experiments::{analysis, aslr, canary_oracle, catalogue, matrix, overhead};
use swsec::harness::ServeMode;

fn main() {
    // One compile cache: every victim/options pair below compiles
    // exactly once across all five experiments.
    let cache = &ProgramCache::new();

    for table in catalogue::compute(42, cache).tables() {
        println!("{table}");
    }

    println!("{}", matrix::compute(42, cache).table());

    // Keep the sweep small outside --release; the bench harness runs
    // the full version.
    println!(
        "{}",
        aslr::compute(&[2, 4, 6], 5, 7, cache, ServeMode::Fork).table()
    );

    println!("{}", overhead::compute().table());

    println!("{}", analysis::compute().table());

    // E14: the crash-oracle canary brute force against a forking server.
    println!(
        "{}",
        canary_oracle::compute(31, 2048, cache, ServeMode::Fork).table()
    );
}
