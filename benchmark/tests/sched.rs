//! The open-loop schedule: due instants are `start + k / rate` whatever
//! the sender does.

use p4lru_benchmark::sched::Schedule;

const SEC: u64 = 1_000_000_000;
const NEVER: u64 = u64::MAX;

#[test]
fn due_instants_are_start_plus_k_over_rate() {
    let s = Schedule {
        start_ns: 5_000,
        rate: 30_000,
    };
    assert_eq!(s.ops_before(5_000 + 2 * SEC), 60_000);
    assert_eq!(s.due_ns(0), 5_000);
    assert_eq!(s.due_ns(1), 5_000 + 33_333);
    assert_eq!(s.due_ns(3), 5_000 + 100_000);
    assert_eq!(s.due_ns(30_000), 5_000 + SEC);
    // No drift: the last op is due exactly one interval before the end.
    assert_eq!(s.due_ns(59_999), 5_000 + 2 * SEC - 33_334);
}

#[test]
fn ops_are_dealt_round_robin() {
    let s = Schedule {
        start_ns: 0,
        rate: 10_000,
    };
    let conn0: Vec<u64> = s.due_now(0, 2, 450_000, NEVER).collect();
    let conn1: Vec<u64> = s.due_now(1, 2, 450_000, NEVER).collect();
    assert_eq!(conn0, vec![0, 2, 4]); // due at 0, 200, 400 µs
    assert_eq!(conn1, vec![1, 3]); // due at 100, 300 µs
}

#[test]
fn a_late_sender_gets_a_burst_and_no_due_instant_moves() {
    let s = Schedule {
        start_ns: 0,
        rate: 10_000,
    };
    let before: Vec<u64> = (0..10_000).map(|k| s.due_ns(k)).collect();

    // The sender of connection 0 sent op 0 on time, then stalled 10 ms.
    let mut next = 2;
    let now = 10_000_000;
    let burst: Vec<u64> = s.due_now(next, 2, now, NEVER).collect();
    assert_eq!(burst.len(), 50, "every op that fell due during the stall");
    for &k in &burst {
        // Latency is counted from the due instant, so the stall shows.
        assert_eq!(s.due_ns(k), k * 100_000);
        assert!(now - s.due_ns(k) <= 10_000_000);
        next = k + 2;
    }
    assert_eq!(next, 102);
    assert_eq!(
        s.due_now(next, 2, now, NEVER).count(),
        0,
        "nothing else is due yet"
    );

    let after: Vec<u64> = (0..10_000).map(|k| s.due_ns(k)).collect();
    assert_eq!(before, after);
}

#[test]
fn the_schedule_stops_at_its_end() {
    let s = Schedule {
        start_ns: 0,
        rate: 1_000,
    };
    assert_eq!(s.ops_before(SEC), 1_000);
    assert_eq!(s.ops_before(SEC + 1), 1_001);
    assert_eq!(s.due_now(998, 2, NEVER, SEC).collect::<Vec<_>>(), vec![998]);
    assert_eq!(s.due_now(1_000, 2, NEVER, SEC).count(), 0);
    // Moving the end out releases more ops; their due instants were fixed
    // all along.
    assert_eq!(
        s.due_now(1_000, 2, NEVER, SEC + 3_000_000)
            .collect::<Vec<_>>(),
        vec![1_000, 1_002]
    );
}
