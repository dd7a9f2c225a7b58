//! Part A of the traced run: the layer walk.
//!
//! In process, on one thread, the head of the workload's tape is walked in
//! batches. For each batch the harness calls, stage by stage, the public
//! functions a request passes through in the servers — one span per
//! (batch, layer), because a span per call would mostly time the clock
//! read — and beside them the assembled `Shard::get/set/del` on an
//! identically populated shard pair.
//!
//! Within a batch the GETs run first, then the SETs, then the DELs, on
//! both sides. That is a legal reordering of the batch, it keeps cached
//! addresses valid while the stages are split (nothing is freed until the
//! DEL stage, which invalidates before it frees, as `Shard::del` does),
//! and it lets the layered and the assembled side be compared reply by
//! reply.

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::path::Path;
use std::rc::Rc;

use p4lru_cluster::{HashRing, DEFAULT_VNODES};
use p4lru_core::array::P4Lru3Array;
use p4lru_durable::{DurabilityConfig, ShardLog};
use p4lru_kvstore::db::record_for;
use p4lru_kvstore::slab::Record;
use p4lru_kvstore::{Addr48, Database, VALUE_SIZE};
use p4lru_server::protocol::{encode_del, encode_get, encode_set, encode_value};
use p4lru_server::{shard_of, FrameReader, FrameWriter, Request, Response, Shard};
use p4lru_tier::{SwitchTier, SwitchTierConfig};

use crate::procs::SHARDS;
use crate::span::Trace;
use crate::tape::{value_for, Kind, Op, Tape, Topology, Workload, CONNS};

/// Ops per batch, and so per span.
pub const BATCH: usize = 256;

/// `serverd`'s default cache units per shard and hash seed.
const UNITS_PER_SHARD: usize = 4096;
const CACHE_SEED: u64 = 0x9412_C0DE;

/// An in-memory byte pipe: what one side writes the other reads, through
/// the server crate's own `FrameWriter`/`FrameReader`.
#[derive(Clone, Default)]
struct Wire(Rc<RefCell<WireBuf>>);

#[derive(Default)]
struct WireBuf {
    bytes: Vec<u8>,
    read: usize,
    total: u64,
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut w = self.0.borrow_mut();
        if w.read == w.bytes.len() {
            w.bytes.clear();
            w.read = 0;
        }
        w.bytes.extend_from_slice(buf);
        w.total += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut w = self.0.borrow_mut();
        let n = buf.len().min(w.bytes.len() - w.read);
        buf[..n].copy_from_slice(&w.bytes[w.read..w.read + n]);
        w.read += n;
        Ok(n)
    }
}

/// What the walk did, besides the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkOutcome {
    /// Ops walked.
    pub ops: u64,
    /// Replies where the layered path, the assembled shard and the decoded
    /// wire reply disagreed.
    pub mismatches: u64,
    /// Request plus response bytes that crossed the in-memory wire.
    pub wire_bytes: u64,
}

fn overwrite(slot: &mut Addr48, addr: Addr48) {
    *slot = addr;
}

fn cache_seed(shard: usize) -> u64 {
    CACHE_SEED ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The reply a server-side stage produced for one op.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reply {
    Record(Record),
    NotFound,
    Ok,
}

/// Walks the first `max_ops` ops of `tape` (whole batches), recording spans
/// into `trace` under one root span. `scratch` holds the WAL directories of
/// a durable workload.
pub fn layer_walk(
    trace: &mut Trace,
    workload: &Workload,
    tape: &Tape,
    max_ops: usize,
    scratch: &Path,
) -> io::Result<WalkOutcome> {
    let durable = workload.topology == Topology::Durable;
    let config = DurabilityConfig::default();
    let root = trace.open(0, "walk", 0);

    // Set-up: the layers one by one, and the assembled shards, populated
    // the way `serverd --items` populates (inserts in key order).
    trace.time(root, "kvstore.populate", workload.keys, || {
        std::hint::black_box(Database::populate(workload.keys));
    });
    let mut caches: Vec<P4Lru3Array<u64, Addr48>> = (0..SHARDS)
        .map(|s| P4Lru3Array::with_seed(UNITS_PER_SHARD, cache_seed(s)))
        .collect();
    let mut dbs: Vec<Database> = (0..SHARDS).map(|_| Database::default()).collect();
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|s| Shard::new(UNITS_PER_SHARD, cache_seed(s)))
        .collect();
    for key in 0..workload.keys {
        let s = shard_of(key, SHARDS);
        dbs[s].insert(key, record_for(key));
        shards[s].load(key, record_for(key));
    }
    let layered_dir = scratch.join("walk_layered");
    let assembled_dir = scratch.join("walk_assembled");
    for dir in [&layered_dir, &assembled_dir] {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
    }
    let mut logs: Vec<ShardLog> = Vec::new();
    if durable {
        for s in 0..SHARDS {
            let dir = layered_dir.join(format!("shard-{s}"));
            logs.push(ShardLog::init_fresh(&dir, &dbs[s], &config)?);
            shards[s]
                .enable_durability_fresh(&assembled_dir.join(format!("shard-{s}")), &config)?;
        }
    }
    let mut tier = (workload.topology == Topology::Tier)
        .then(|| SwitchTier::new(&SwitchTierConfig::default()));
    let ring = (workload.name == "read_hot")
        .then(|| HashRing::new(&["node-a", "node-b", "node-c"], DEFAULT_VNODES));

    let c2s = Wire::default();
    let s2c = Wire::default();
    let mut client_out = FrameWriter::new(c2s.clone());
    let mut server_in = FrameReader::new(c2s.clone());
    let mut server_out = FrameWriter::new(s2c.clone());
    let mut client_in = FrameReader::new(s2c.clone());

    let mut payload = Vec::new();
    let mut frame = Vec::new();
    let mut version = 0u64;
    let mut out = WalkOutcome::default();

    let mut ops: Vec<Op> = Vec::with_capacity(BATCH);
    let mut values: Vec<Record> = Vec::with_capacity(BATCH);
    let mut requests: Vec<Request> = Vec::with_capacity(BATCH);
    let mut route: Vec<usize> = Vec::with_capacity(BATCH);
    let mut replies: Vec<Reply> = Vec::with_capacity(BATCH);
    let mut assembled: Vec<Reply> = Vec::with_capacity(BATCH);
    let mut decoded: Vec<Response> = Vec::with_capacity(BATCH);
    let mut probes: Vec<Option<Addr48>> = Vec::with_capacity(BATCH);
    let mut addrs: Vec<Option<Addr48>> = Vec::with_capacity(BATCH);

    for first in (0..max_ops - max_ops % BATCH).step_by(BATCH) {
        // Generator work, not a layer: pick the ops and build SET values.
        ops.clear();
        values.clear();
        for k in first..first + BATCH {
            let op = tape.op(k);
            values.push(if op.kind == Kind::Set {
                version += 1;
                value_for(op.key, (k % CONNS) as u8, version)
            } else {
                [0; VALUE_SIZE]
            });
            ops.push(op);
        }
        let n = BATCH as u64;
        let gets: Vec<usize> = (0..BATCH).filter(|&i| ops[i].kind == Kind::Get).collect();
        let sets: Vec<usize> = (0..BATCH).filter(|&i| ops[i].kind == Kind::Set).collect();
        let dels: Vec<usize> = (0..BATCH).filter(|&i| ops[i].kind == Kind::Del).collect();
        requests.clear();
        route.clear();
        decoded.clear();
        replies.clear();
        replies.resize(BATCH, Reply::Ok);
        assembled.clear();
        assembled.resize(BATCH, Reply::Ok);
        probes.clear();
        probes.resize(BATCH, None);
        addrs.clear();
        addrs.resize(BATCH, None);

        let batch = trace.open(root, "walk.batch", n);

        trace.time(batch, "protocol.client_encode", n, || -> io::Result<()> {
            for (op, value) in ops.iter().zip(&values) {
                match op.kind {
                    Kind::Get => encode_get(op.key, &mut payload),
                    Kind::Set => encode_set(op.key, value, &mut payload),
                    Kind::Del => encode_del(op.key, &mut payload),
                }
                client_out.write_frame(&payload)?;
            }
            client_out.flush()
        })?;

        trace.time(batch, "protocol.decode_req", n, || -> io::Result<()> {
            for _ in 0..BATCH {
                server_in.read_frame(&mut frame)?;
                requests.push(Request::decode(&frame)?);
            }
            Ok(())
        })?;

        trace.time(batch, "server.route", n, || {
            for op in &ops {
                route.push(shard_of(op.key, SHARDS));
            }
        });

        if let Some(ring) = &ring {
            trace.time(batch, "cluster.ring_lookup", n, || {
                for op in &ops {
                    std::hint::black_box(ring.node_for(op.key));
                }
            });
        }

        // Writes each shard will commit at the end of this batch.
        let mut pending = [0usize; SHARDS];
        for &i in sets.iter().chain(&dels) {
            pending[route[i]] += 1;
        }

        // GET group, layer by layer.
        trace.time(batch, "core.probe", gets.len() as u64, || {
            for &i in &gets {
                probes[i] = caches[route[i]].get(&ops[i].key).copied();
            }
        });
        let hits = gets.iter().filter(|&&i| probes[i].is_some()).count();
        trace.time(batch, "kvstore.read_addr", hits as u64, || {
            for &i in &gets {
                if let Some(addr) = probes[i] {
                    replies[i] = Reply::Record(*dbs[route[i]].lookup_by_addr(addr));
                    addrs[i] = Some(addr);
                }
            }
        });
        trace.time(batch, "kvstore.lookup", (gets.len() - hits) as u64, || {
            for &i in &gets {
                if probes[i].is_none() {
                    match dbs[route[i]].lookup_by_key(ops[i].key) {
                        Some(found) => {
                            replies[i] = Reply::Record(*found.record);
                            addrs[i] = Some(found.addr);
                        }
                        None => replies[i] = Reply::NotFound,
                    }
                }
            }
        });
        let found = gets.iter().filter(|&&i| addrs[i].is_some()).count();
        trace.time(batch, "core.update.get", found as u64, || {
            for &i in &gets {
                if let Some(addr) = addrs[i] {
                    caches[route[i]].update(ops[i].key, addr, overwrite);
                }
            }
        });

        // SET group.
        if durable {
            trace.time(
                batch,
                "durable.append",
                sets.len() as u64,
                || -> io::Result<()> {
                    for &i in &sets {
                        logs[route[i]].append_set(ops[i].key, values[i])?;
                    }
                    Ok(())
                },
            )?;
        }
        trace.time(batch, "kvstore.upsert", sets.len() as u64, || {
            for &i in &sets {
                addrs[i] = Some(dbs[route[i]].upsert(ops[i].key, values[i]).addr);
            }
        });
        trace.time(batch, "core.update.set", sets.len() as u64, || {
            for &i in &sets {
                if let Some(addr) = addrs[i] {
                    caches[route[i]].update(ops[i].key, addr, overwrite);
                }
            }
        });

        // DEL group: log, invalidate, then free.
        if durable {
            trace.time(
                batch,
                "durable.append",
                dels.len() as u64,
                || -> io::Result<()> {
                    for &i in &dels {
                        logs[route[i]].append_del(ops[i].key)?;
                    }
                    Ok(())
                },
            )?;
        }
        trace.time(batch, "core.remove", dels.len() as u64, || {
            for &i in &dels {
                caches[route[i]].remove(&ops[i].key);
            }
        });
        trace.time(batch, "kvstore.remove", dels.len() as u64, || {
            for &i in &dels {
                replies[i] = if dbs[route[i]].remove(ops[i].key) {
                    Reply::Ok
                } else {
                    Reply::NotFound
                };
            }
        });

        // One commit per shard per batch, as the shard loop does.
        if durable {
            for (s, log) in logs.iter_mut().enumerate() {
                trace.time(batch, "durable.commit", pending[s] as u64, || log.commit())?;
                if log.should_snapshot() {
                    trace.time(batch, "durable.snapshot", 1, || log.snapshot(&dbs[s]))?;
                    dbs[s].optimize_index();
                }
            }
        }

        if let Some(tier) = &mut tier {
            let mut missed = Vec::new();
            trace.time(batch, "tier.lookup", gets.len() as u64, || {
                for &i in &gets {
                    if tier.lookup(ops[i].key).is_none() {
                        missed.push(i);
                    }
                }
            });
            trace.time(batch, "tier.admit", missed.len() as u64, || {
                for &i in &missed {
                    if let Reply::Record(record) = replies[i] {
                        let epoch = tier.epoch();
                        tier.admit(ops[i].key, record, epoch);
                    }
                }
            });
            trace.time(
                batch,
                "tier.invalidate",
                (sets.len() + dels.len()) as u64,
                || {
                    for &i in sets.iter().chain(&dels) {
                        tier.invalidate(ops[i].key);
                    }
                },
            );
        }

        trace.time(batch, "protocol.encode_resp", n, || -> io::Result<()> {
            for reply in &replies {
                match reply {
                    Reply::Record(record) => encode_value(record, &mut payload),
                    Reply::NotFound => Response::NotFound.encode(&mut payload),
                    Reply::Ok => Response::Ok.encode(&mut payload),
                }
                server_out.write_frame(&payload)?;
            }
            server_out.flush()
        })?;

        trace.time(batch, "protocol.client_decode", n, || -> io::Result<()> {
            for _ in 0..BATCH {
                client_in.read_frame(&mut frame)?;
                decoded.push(Response::decode(&frame)?);
            }
            Ok(())
        })?;

        // The assembled path on the twin shards, same order.
        trace.time(batch, "shard.get", gets.len() as u64, || {
            for &i in &gets {
                assembled[i] = match shards[route[i]].get(ops[i].key) {
                    Some(record) => Reply::Record(record),
                    None => Reply::NotFound,
                };
            }
        });
        trace.time(
            batch,
            "shard.set",
            sets.len() as u64,
            || -> io::Result<()> {
                for &i in &sets {
                    shards[route[i]].set(ops[i].key, values[i])?;
                }
                Ok(())
            },
        )?;
        trace.time(
            batch,
            "shard.del",
            dels.len() as u64,
            || -> io::Result<()> {
                for &i in &dels {
                    assembled[i] = if shards[route[i]].del(ops[i].key)? {
                        Reply::Ok
                    } else {
                        Reply::NotFound
                    };
                }
                Ok(())
            },
        )?;
        if durable {
            for (s, shard) in shards.iter_mut().enumerate() {
                trace.time(batch, "shard.commit", pending[s] as u64, || {
                    shard.commit_batch(pending[s])
                })?;
            }
        }
        trace.close(batch);

        // Output check: decoded request = op, layered = assembled = decoded
        // reply.
        for i in 0..BATCH {
            let request_ok = match (&requests[i], ops[i].kind) {
                (Request::Get { key }, Kind::Get) | (Request::Del { key }, Kind::Del) => {
                    *key == ops[i].key
                }
                (Request::Set { key, value }, Kind::Set) => {
                    *key == ops[i].key && value[..] == values[i]
                }
                _ => false,
            };
            let wire_ok = match (&decoded[i], &replies[i]) {
                (Response::Value(v), Reply::Record(r)) => v[..] == r[..],
                (Response::NotFound, Reply::NotFound) | (Response::Ok, Reply::Ok) => true,
                _ => false,
            };
            if !(request_ok && wire_ok && replies[i] == assembled[i]) {
                out.mismatches += 1;
            }
        }
        out.ops += n;
    }

    // Durability's set-up costs, once per shard.
    if durable {
        for (s, log) in logs.iter_mut().enumerate() {
            trace.time(root, "durable.snapshot", 1, || log.snapshot(&dbs[s]))?;
        }
        drop(logs);
        for (s, db) in dbs.iter().enumerate() {
            let dir = layered_dir.join(format!("shard-{s}"));
            let (_, recovery) = trace.time(root, "durable.recover", 1, || {
                ShardLog::recover(&dir, &config)
            })?;
            if recovery.db.len() != db.len() {
                out.mismatches += 1;
            }
        }
    }
    drop(shards);
    for dir in [&layered_dir, &assembled_dir] {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
    }
    trace.close(root);
    out.wire_bytes = c2s.0.borrow().total + s2c.0.borrow().total;
    Ok(out)
}
