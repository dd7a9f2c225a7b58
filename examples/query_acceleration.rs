//! LruIndex scenario: accelerating database queries from the switch.
//!
//! The switch caches 48-bit record addresses in four series-connected
//! P4LRU3 arrays. Query packets probe read-only and stamp `cached_flag`;
//! the server skips its B+Tree walk on a hit; reply packets perform the
//! single deferred cache write.
//!
//! ```text
//! cargo run --release --example query_acceleration
//! ```

use p4lru::core::policies::PolicyKind;
use p4lru::kvstore::db::Database;
use p4lru::lruindex::system::{run_miss_rate, run_throughput, LruIndexConfig, ThroughputConfig};

fn main() {
    // The database substrate: a real B+Tree index over a record heap.
    let db = Database::populate(200_000);
    println!(
        "database: {} records, B+Tree height {}, service {}ns (indexed) vs {}ns (index walk)\n",
        db.len(),
        db.index_height(),
        db.service_ns_indexed(),
        db.service_ns_unindexed()
    );

    // Miss rate under the deferred query/reply protocol.
    println!("{:<10} {:>10} {:>12}", "policy", "levels", "miss rate");
    for (policy, levels) in [
        (PolicyKind::P4Lru3, 4),
        (PolicyKind::P4Lru3, 1),
        (PolicyKind::P4Lru2, 4),
        (PolicyKind::P4Lru1, 4),
    ] {
        let report = run_miss_rate(&LruIndexConfig {
            policy,
            levels,
            items: 100_000,
            ops: 300_000,
            memory_bytes: 64_000,
            ..Default::default()
        });
        println!(
            "{:<10} {:>10} {:>11.2}%",
            report.policy,
            levels,
            report.miss_rate * 100.0
        );
    }

    // Closed-loop throughput: 8 client threads against the server pool.
    println!(
        "\n{:<10} {:>10} {:>12} {:>10}",
        "threads", "KTPS", "naive KTPS", "speedup"
    );
    for threads in [1, 2, 4, 8] {
        let r = run_throughput(
            &ThroughputConfig {
                threads,
                items: 200_000,
                duration_ns: 50_000_000,
                ..Default::default()
            },
            PolicyKind::P4Lru3,
        );
        println!(
            "{:<10} {:>10.1} {:>12.1} {:>9.2}x",
            threads, r.ktps, r.naive_ktps, r.speedup
        );
    }
}
