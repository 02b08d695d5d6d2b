//! Crash-recovery contract of the WAL-backed service: an unclean kill
//! after acknowledgement loses nothing — the next start replays the log
//! and reaches the state a clean sequential apply would have reached.

use fdrms::{FdRms, FdRmsBuilder, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rms_geom::{Point, PointId};
use rms_serve::wal::Wal;
use rms_serve::{RmsService, ServeConfig};
use std::path::PathBuf;

fn random_points(seed: u64, n: usize, d: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Point::new_unchecked(i as u64, (0..d).map(|_| rng.gen()).collect()))
        .collect()
}

/// Valid mixed op stream over a live-id tracker.
fn random_ops(seed: u64, initial: &[Point], n: usize, d: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<PointId> = initial.iter().map(Point::id).collect();
    let mut next: PointId = 100_000;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let coords: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
        match rng.gen_range(0..4) {
            2 if !live.is_empty() => {
                let idx = rng.gen_range(0..live.len());
                ops.push(Op::Delete(live.swap_remove(idx)));
            }
            3 if !live.is_empty() => {
                let id = live[rng.gen_range(0..live.len())];
                ops.push(Op::Update(Point::new_unchecked(id, coords)));
            }
            _ => {
                ops.push(Op::Insert(Point::new_unchecked(next, coords)));
                live.push(next);
                next += 1;
            }
        }
    }
    ops
}

fn builder(d: usize) -> FdRmsBuilder {
    FdRms::builder(d).r(4).max_utilities(128).seed(5)
}

fn temp_wal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("krms-serve-wal-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.wal", std::process::id()))
}

fn live_ids(fd: &FdRms) -> Vec<PointId> {
    let mut ids: Vec<PointId> = fd.live_points().iter().map(Point::id).collect();
    ids.sort_unstable();
    ids
}

/// A clean sequential engine fed the same stream, the recovery oracle.
fn sequential(d: usize, initial: &[Point], ops: &[Op]) -> FdRms {
    let mut fd = builder(d).build(initial.to_vec()).unwrap();
    for op in ops {
        fd.apply_batch(vec![op.clone()]).unwrap();
    }
    fd
}

/// Reads the single (unlabeled) sample of `name` from an exposition body.
fn counter(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("series {name} missing:\n{body}"))
        .trim()
        .parse()
        .unwrap()
}

/// The WAL metrics exported through the service registry stay consistent
/// with the replay stats: the writer side counts one append per
/// acknowledged op, and after a crash (plus a torn tail) the restarted
/// service's `rms_wal_recovered_ops_total` equals the `wal_recovered_ops`
/// stat while the dropped bytes show up in
/// `rms_wal_truncated_tail_bytes_total`.
#[test]
fn recovery_metrics_match_replay_stats() {
    let d = 2;
    let path = temp_wal("metrics-recovery");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(31, 60, d);
    let ops = random_ops(32, &initial, 80, d);

    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    for op in ops {
        service.submit(op).unwrap();
    }
    let body = service.registry().encode();
    assert_eq!(counter(&body, "rms_wal_appends_total"), 80);
    assert_eq!(counter(&body, "rms_wal_recovered_ops_total"), 0);
    service.crash();

    // Tear the tail: the last record loses its final bytes, exactly as a
    // mid-write power cut would leave the file.
    let raw = std::fs::read(&path).unwrap();
    std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();

    let restarted =
        RmsService::start_with_wal(builder(d), initial, ServeConfig::default(), &path).unwrap();
    let recovered = restarted.snapshot().stats.wal_recovered_ops;
    assert_eq!(recovered, 79, "the torn record is dropped, the rest replay");
    let body = restarted.registry().encode();
    assert_eq!(counter(&body, "rms_wal_recovered_ops_total"), recovered);
    assert!(counter(&body, "rms_wal_truncated_tail_bytes_total") > 0);
    assert_eq!(counter(&body, "rms_wal_appends_total"), 0, "fresh registry");
    restarted.shutdown()[0].check_invariants().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crash_after_ack_loses_no_acknowledged_op() {
    let d = 3;
    let path = temp_wal("single-crash");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(1, 150, d);
    let ops = random_ops(2, &initial, 200, d);

    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    let handle = service.handle();
    for op in ops.clone() {
        handle.submit(op).unwrap(); // every op below is acknowledged
    }
    // The unclean kill: no drain guarantee, no snapshot, and crucially no
    // log compaction — the in-memory engine state is discarded.
    service.crash();

    // Restart from the same base dataset + log: the replayed engine must
    // match a clean sequential apply of every acknowledged op.
    let restarted =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    let snap = restarted.snapshot();
    assert_eq!(snap.stats.wal_recovered_ops, 200, "all acked ops replayed");
    assert_eq!(
        snap.version(),
        0,
        "replay happens before the service goes live"
    );
    let fd = restarted.shutdown().remove(0);
    fd.check_invariants().unwrap();
    let seq = sequential(d, &initial, &ops);
    assert_eq!(live_ids(&fd), live_ids(&seq));
    assert_eq!(fd.len(), seq.len());
    // Same canonical database; the solutions are stable covers of the
    // same system and may legitimately differ (covers are not unique),
    // but both respect the budget.
    assert!(fd.result().len() <= 4 && seq.result().len() <= 4);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn acked_but_unapplied_ops_survive_via_the_log() {
    // The narrow window the WAL exists for: an op acknowledged (and
    // therefore logged) that the applier never got to apply. Simulate it
    // exactly by appending to the log of a crashed service — on disk
    // this is indistinguishable from dying between ack and apply.
    let d = 2;
    let path = temp_wal("ack-no-apply");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(3, 80, d);
    let applied = random_ops(4, &initial, 50, d);

    let service =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    for op in applied.clone() {
        service.submit(op).unwrap();
    }
    service.crash();

    // A victim that is certainly still live after the applied stream.
    let victim = live_ids(&sequential(d, &initial, &applied))[0];
    let unapplied = vec![
        Op::Insert(Point::new_unchecked(777_777, vec![0.95, 0.9])),
        Op::Delete(victim),
    ];
    {
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in &unapplied {
            wal.append(op).unwrap();
        }
    }

    let restarted =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &path)
            .unwrap();
    assert_eq!(restarted.snapshot().stats.wal_recovered_ops, 52);
    let fd = restarted.shutdown().remove(0);
    fd.check_invariants().unwrap();
    assert!(fd.contains(777_777));
    assert!(!fd.contains(victim));
    let mut all = applied;
    all.extend(unapplied);
    let seq = sequential(d, &initial, &all);
    assert_eq!(live_ids(&fd), live_ids(&seq));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn graceful_shutdown_compacts_to_a_checkpoint() {
    let d = 2;
    let path = temp_wal("compaction");
    let _ = std::fs::remove_file(&path);
    let initial = random_points(5, 100, d);
    let ops = random_ops(6, &initial, 120, d);

    let service =
        RmsService::start_with_wal(builder(d), initial, ServeConfig::default(), &path).unwrap();
    for op in ops {
        service.submit(op).unwrap();
    }
    let fd = service.shutdown().remove(0);
    let expected = live_ids(&fd);
    fd.check_invariants().unwrap();

    // The compacted log holds one checkpoint and no ops; a restart with
    // a *different* (even empty) base dataset recovers the checkpoint
    // state with zero replayed ops.
    let (_, replay) = Wal::open(&path).unwrap();
    assert!(replay.ops.is_empty(), "compaction leaves no op records");
    let checkpoint = replay.checkpoint.expect("compaction writes a checkpoint");
    assert_eq!(checkpoint.len(), expected.len());

    let restarted =
        RmsService::start_with_wal(builder(d), Vec::new(), ServeConfig::default(), &path).unwrap();
    assert_eq!(restarted.snapshot().stats.wal_recovered_ops, 0);
    let fd = restarted.shutdown().remove(0);
    fd.check_invariants().unwrap();
    assert_eq!(live_ids(&fd), expected);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn shard_count_mismatch_is_refused() {
    let d = 2;
    let base = temp_wal("meta-guard");
    let cleanup = || {
        for i in 0..3 {
            let _ = std::fs::remove_file(format!("{}.{i}", base.display()));
        }
        let _ = std::fs::remove_file(format!("{}.meta", base.display()));
    };
    cleanup();
    let initial = random_points(9, 40, d);
    let service = RmsService::start_with_wal(
        builder(d),
        initial.clone(),
        ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        },
        &base,
    )
    .unwrap();
    service.crash();

    // Restarting with a different shard count must fail loudly instead
    // of silently dropping a shard's log or re-partitioning ids.
    let err = RmsService::start_with_wal(
        builder(d),
        initial.clone(),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        &base,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(err.to_string().contains("3-shard"), "{err}");

    // The matching count still works.
    let service = RmsService::start_with_wal(
        builder(d),
        initial,
        ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        },
        &base,
    )
    .unwrap();
    for fd in service.shutdown() {
        fd.check_invariants().unwrap();
    }
    cleanup();
}

#[test]
fn failed_startup_does_not_pin_a_shard_count() {
    let d = 2;
    let base = temp_wal("meta-no-pin");
    let cleanup = || {
        for i in 0..4 {
            let _ = std::fs::remove_file(format!("{}.{i}", base.display()));
        }
        let _ = std::fs::remove_file(format!("{}.meta", base.display()));
    };
    cleanup();
    let initial = random_points(13, 30, d);
    // r < d is rejected by the builder, after shard 0's log is opened
    // but before any data lands — the sidecar must not be written.
    assert!(RmsService::start_with_wal(
        FdRms::builder(d).r(1).max_utilities(64),
        initial.clone(),
        ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        },
        &base,
    )
    .is_err());
    assert!(
        !PathBuf::from(format!("{}.meta", base.display())).exists(),
        "failed startup must not record a shard count"
    );
    // A retry with a *different* count is not refused.
    let service = RmsService::start_with_wal(
        builder(d),
        initial,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        &base,
    )
    .unwrap();
    for fd in service.shutdown() {
        fd.check_invariants().unwrap();
    }
    cleanup();
}

#[test]
fn single_service_refuses_a_shard_groups_logs() {
    let d = 2;
    let base = temp_wal("single-vs-sharded");
    let cleanup = || {
        for i in 0..2 {
            let _ = std::fs::remove_file(format!("{}.{i}", base.display()));
        }
        let _ = std::fs::remove_file(format!("{}.meta", base.display()));
    };
    cleanup();
    let initial = random_points(15, 30, d);
    let group = RmsService::start_with_wal(
        builder(d),
        initial.clone(),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        &base,
    )
    .unwrap();
    group.crash();
    // Opening the bare base path would create a fresh empty log and
    // silently ignore the shard logs; the library itself must refuse.
    let err =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &base)
            .map(|_| ())
            .unwrap_err();
    assert!(err.to_string().contains("sharded group"), "{err}");
    cleanup();

    // The converse: a bare single-service log at the base path is
    // refused by a group (which would otherwise start fresh shard logs
    // beside it), and still reopens and recovers as a single service.
    let _ = std::fs::remove_file(&base);
    let single =
        RmsService::start_with_wal(builder(d), initial.clone(), ServeConfig::default(), &base)
            .unwrap();
    single
        .submit(Op::Insert(Point::new_unchecked(9_000, vec![0.9, 0.9])))
        .unwrap();
    single.crash();
    let err = RmsService::start_with_wal(
        builder(d),
        initial.clone(),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        &base,
    )
    .map(|_| ())
    .unwrap_err();
    assert!(
        err.to_string()
            .contains("is a single-service write-ahead log"),
        "{err}"
    );
    assert!(
        !PathBuf::from(format!("{}.meta", base.display())).exists(),
        "a refused start must not record a shard count"
    );
    let reopened =
        RmsService::start_with_wal(builder(d), initial, ServeConfig::default(), &base).unwrap();
    assert_eq!(reopened.snapshot().stats.wal_recovered_ops, 1);
    let fd = reopened.shutdown().remove(0);
    assert!(fd.contains(9_000));
    fd.check_invariants().unwrap();
    std::fs::remove_file(&base).unwrap();
}

/// Two writers race *conflicting* ops on the same ids: one inserts each
/// contended id, the other deletes it. The live outcome of each race is
/// readable from the stats — if the delete was applied first it was
/// rejected (the id was not live yet) and the id survives; if the insert
/// went first, both ops applied and the id is gone. Log order must equal
/// apply order (enqueue and append are serialized under the log mutex),
/// so a crash + replay must reproduce the *same* outcome for every
/// contended id — before that fix, the log could record `insert, delete`
/// while the live service applied `delete, insert`, and recovery
/// resurrected ids the live service had settled differently.
#[test]
fn contended_id_recovery_matches_live_outcome() {
    let d = 2;
    let rounds = 12;
    let pairs: u64 = 8;
    for round in 0..rounds {
        let path = temp_wal(&format!("contended-{round}"));
        let _ = std::fs::remove_file(&path);
        let initial = random_points(20 + round, 40, d);
        let service = RmsService::start_with_wal(
            builder(d),
            initial.clone(),
            ServeConfig {
                // A tiny queue forces real interleaving through the
                // try-send path, not just uncontended fast-path sends.
                queue_capacity: 2,
                max_batch: 4,
                ..ServeConfig::default()
            },
            &path,
        )
        .unwrap();

        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let inserter = {
            let h = service.handle();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..pairs {
                    h.submit(Op::Insert(Point::new_unchecked(7_000 + i, vec![0.9, 0.8])))
                        .unwrap();
                }
            })
        };
        let deleter = {
            let h = service.handle();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..pairs {
                    h.submit(Op::Delete(7_000 + i)).unwrap();
                }
            })
        };
        inserter.join().unwrap();
        deleter.join().unwrap();

        // Quiesce: every acknowledged op accounted for (applied or
        // rejected), then record each race's live outcome and crash.
        let handle = service.handle();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let stats = loop {
            let snap = handle.snapshot();
            if snap.stats.ops_applied + snap.stats.ops_rejected == 2 * pairs {
                break snap.stats;
            }
            assert!(std::time::Instant::now() < deadline, "ops never settled");
            std::thread::yield_now();
        };
        // Rejected ops are exactly the deletes that ran before their
        // insert; each such id must be live (its insert applied after).
        let survivors = stats.ops_rejected;
        service.crash();

        let restarted =
            RmsService::start_with_wal(builder(d), initial, ServeConfig::default(), &path).unwrap();
        let fd = restarted.shutdown().remove(0);
        fd.check_invariants().unwrap();
        let recovered: u64 = (0..pairs).filter(|i| fd.contains(7_000 + i)).count() as u64;
        assert_eq!(
            recovered, survivors,
            "round {round}: recovery replayed a different serialization than the live \
             service applied ({survivors} contended ids survived live, {recovered} after replay)"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn sharded_crash_recovery_loses_nothing() {
    let d = 3;
    let shards = 4;
    let base = temp_wal("sharded-crash");
    let cleanup = |base: &PathBuf| {
        for i in 0..shards {
            let _ = std::fs::remove_file(format!("{}.{i}", base.display()));
        }
    };
    cleanup(&base);
    let initial = random_points(7, 160, d);
    let ops = random_ops(8, &initial, 240, d);

    let service = RmsService::start_with_wal(
        builder(d),
        initial.clone(),
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
        &base,
    )
    .unwrap();
    let handle = service.handle();
    for op in ops.clone() {
        handle.submit(op).unwrap();
    }
    service.crash();

    // Restart the whole group from the per-shard logs: the union of the
    // recovered shards must match a clean sequential apply, and every
    // shard must hold exactly its id partition.
    let restarted = RmsService::start_with_wal(
        builder(d),
        initial.clone(),
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
        &base,
    )
    .unwrap();
    assert_eq!(restarted.snapshot().stats.wal_recovered_ops, 240);
    let fds = restarted.shutdown();
    assert_eq!(fds.len(), shards);
    let mut union: Vec<PointId> = Vec::new();
    for (i, fd) in fds.iter().enumerate() {
        fd.check_invariants().unwrap();
        let ids = live_ids(fd);
        assert!(
            ids.iter().all(|id| (id % shards as u64) as usize == i),
            "shard {i} holds a foreign id"
        );
        union.extend(ids);
    }
    union.sort_unstable();
    let seq = sequential(d, &initial, &ops);
    assert_eq!(union, live_ids(&seq));
    cleanup(&base);
}
