//! Tape determinism, the one-writer-per-key rule, and the reply model.

use p4lru_benchmark::tape::{
    value_for, Expect, Kind, Model, Tape, Verdict, Workload, CONNS, VALUE_MARK, WORKLOADS,
};
use p4lru_kvstore::db::record_for;
use p4lru_server::Response;

const OPS: usize = 20_000;

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for w in &WORKLOADS {
        let a = Tape::generate(w, 42, OPS);
        let b = Tape::generate(w, 42, OPS);
        let c = Tape::generate(w, 43, OPS);
        assert_eq!(a.words(), b.words(), "{}", w.name);
        assert_ne!(a.words(), c.words(), "{}", w.name);
        assert_eq!(a.len(), OPS);
    }
}

#[test]
fn keys_stay_in_range_and_mix_matches_the_workload() {
    for w in &WORKLOADS {
        let tape = Tape::generate(w, 7, OPS);
        let (mut sets, mut dels) = (0, 0);
        for k in 0..OPS {
            let op = tape.op(k);
            assert!(op.key < w.keys);
            match op.kind {
                Kind::Set => sets += 1,
                Kind::Del => dels += 1,
                Kind::Get => {}
            }
        }
        let pct = |n: usize| 100.0 * n as f64 / OPS as f64;
        assert!((pct(sets) - f64::from(w.set_pct)).abs() < 1.5, "{}", w.name);
        assert!((pct(dels) - f64::from(w.del_pct)).abs() < 1.0, "{}", w.name);
    }
}

#[test]
fn every_write_is_on_its_connections_parity_and_reads_are_not() {
    for w in &WORKLOADS {
        let tape = Tape::generate(w, 3, OPS);
        let mut foreign_reads = 0;
        for k in 0..OPS {
            let op = tape.op(k);
            if op.kind == Kind::Get {
                foreign_reads += usize::from(op.key as usize % CONNS != k % CONNS);
            } else {
                assert_eq!(op.key as usize % CONNS, k % CONNS, "{} op {k}", w.name);
            }
        }
        assert!(foreign_reads > OPS / 8, "{}: {foreign_reads}", w.name);
    }
}

#[test]
fn tape_wraps() {
    let tape = Tape::generate(&WORKLOADS[0], 1, 100);
    assert_eq!(tape.op(5), tape.op(105));
}

fn durable() -> &'static Workload {
    Workload::by_name("write_durable").unwrap()
}

#[test]
fn values_describe_themselves() {
    let v = value_for(0xABCD, 1, 9);
    assert_eq!(&v[..8], &0xABCDu64.to_le_bytes());
    assert_eq!(v[8], 1);
    assert_eq!(&v[9..17], &9u64.to_le_bytes());
    assert_eq!(v[63], VALUE_MARK);
    assert_eq!(record_for(0xABCD)[63], 0, "preloaded records end in zero");
}

#[test]
fn model_follows_own_keys_through_set_and_del() {
    let mut m = Model::new(0, durable());
    let key = 10;
    let value = |r: &[u8]| Response::Value(r.to_vec());
    let preloaded = value(&record_for(key));
    assert_eq!(m.expect_get(key), Expect::Preloaded);
    assert_eq!(
        m.check(Expect::Preloaded, key, &preloaded),
        Verdict::Correct
    );
    assert_eq!(
        m.check(Expect::Preloaded, key, &Response::NotFound),
        Verdict::Wrong
    );

    let v1 = m.set(key);
    assert_eq!(m.expect_get(key), Expect::Own(1));
    assert_eq!(m.check(Expect::Own(1), key, &value(&v1)), Verdict::Correct);
    let v2 = m.set(key);
    assert_eq!(m.check(Expect::Own(2), key, &value(&v2)), Verdict::Correct);

    assert_eq!(m.del(key), Expect::Deleted { existed: true });
    assert_eq!(m.expect_get(key), Expect::Absent);
    assert_eq!(
        m.check(Expect::Absent, key, &Response::NotFound),
        Verdict::Correct
    );
    assert_eq!(m.del(key), Expect::Deleted { existed: false });
    let gone = Expect::Deleted { existed: false };
    assert_eq!(m.check(gone, key, &Response::NotFound), Verdict::Correct);
    let was_there = Expect::Deleted { existed: true };
    assert_eq!(m.check(was_there, key, &Response::NotFound), Verdict::Wrong);
}

#[test]
fn an_older_state_of_an_own_key_is_stale_anything_else_is_wrong() {
    let mut m = Model::new(0, durable());
    let key = 10;
    let value = |r: &[u8]| Response::Value(r.to_vec());
    let v1 = m.set(key);
    let _v2 = m.set(key);
    let v3 = m.set(key);
    let now = Expect::Own(2);
    assert_eq!(m.check(now, key, &value(&v1)), Verdict::Stale);
    assert_eq!(m.check(now, key, &value(&record_for(key))), Verdict::Stale);
    assert_eq!(
        m.check(now, key, &value(&v3)),
        Verdict::Wrong,
        "from the future"
    );
    assert_eq!(m.check(now, key, &Response::NotFound), Verdict::Wrong);
    assert_eq!(
        m.check(now, key, &value(&value_for(key, 1, 1))),
        Verdict::Wrong,
        "not this connection's"
    );
    assert_eq!(
        m.check(now, key, &value(&value_for(12, 0, 1))),
        Verdict::Wrong,
        "another key's"
    );
    let mut torn = v1;
    torn[30] ^= 1;
    assert_eq!(m.check(now, key, &value(&torn)), Verdict::Wrong);
    assert_eq!(m.check(now, key, &value(&v1[..40])), Verdict::Wrong);
    // After a DEL every value the connection ever wrote is stale.
    assert_eq!(m.check(Expect::Absent, key, &value(&v3)), Verdict::Stale);
}

#[test]
fn foreign_keys_must_name_themselves_and_their_writer() {
    let m = Model::new(0, durable());
    let key = 11; // odd: connection 1's
    assert_eq!(m.expect_get(key), Expect::Foreign);
    let ok = |r: &Response| m.check(Expect::Foreign, key, r) == Verdict::Correct;
    assert!(ok(&Response::Value(record_for(key).to_vec())));
    assert!(ok(&Response::Value(value_for(key, 1, 5).to_vec())));
    assert!(ok(&Response::NotFound), "the workload deletes");
    assert!(
        !ok(&Response::Value(value_for(key, 0, 5).to_vec())),
        "wrong writer"
    );
    assert!(
        !ok(&Response::Value(value_for(13, 1, 5).to_vec())),
        "another key's value"
    );
    assert!(
        !ok(&Response::Value(record_for(13).to_vec())),
        "another key's record"
    );
    assert!(!ok(&Response::Err("boom".into())));

    let read_only = Model::new(0, &WORKLOADS[0]);
    assert_eq!(
        read_only.check(Expect::Foreign, key, &Response::NotFound),
        Verdict::Wrong
    );
}
