//! Contract of a multi-shard `RmsService`: id-partitioned routing, monotone
//! per-shard epochs under concurrent readers, and a drained group whose
//! union matches a clean sequential apply.

use fdrms::{FdRms, FdRmsBuilder, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rms_geom::{Point, PointId};
use rms_serve::{RmsService, ServeConfig, SubmitError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn random_points(seed: u64, n: usize, d: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Point::new_unchecked(i as u64, (0..d).map(|_| rng.gen()).collect()))
        .collect()
}

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

#[test]
fn readers_observe_monotone_per_shard_epochs_and_union_matches_sequential() {
    let d = 3;
    let shards = 4;
    let initial = random_points(11, 200, d);
    let ops = random_ops(12, &initial, 400, d);

    let service = RmsService::start(
        builder(d),
        initial.clone(),
        ServeConfig {
            shards,
            queue_capacity: 32,
            max_batch: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Readers hammer the merged snapshot during ingestion: each shard's
    // epoch component must never regress for any single reader, and the
    // merged solution must respect the budget.
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(Barrier::new(4));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let handle = service.handle();
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let mut last = handle.snapshot().epochs.clone();
                let mut progressed = false;
                ready.wait();
                while !stop.load(Ordering::Relaxed) {
                    let snap = handle.snapshot();
                    assert_eq!(snap.epochs.len(), last.len());
                    for (s, (&now, &before)) in snap.epochs.iter().zip(&last).enumerate() {
                        assert!(
                            now >= before,
                            "shard {s} epoch went backwards: {now} after {before}"
                        );
                    }
                    if snap.epochs != last {
                        progressed = true;
                        assert!(snap.result.len() <= 4, "merged result exceeds r");
                        assert_eq!(snap.result_ids().len(), snap.result.len());
                    }
                    last = snap.epochs.clone();
                }
                let snap = handle.snapshot();
                for (&now, &before) in snap.epochs.iter().zip(&last) {
                    assert!(now >= before, "final epochs went backwards");
                }
                progressed || snap.epochs != last
            })
        })
        .collect();

    ready.wait();
    let handle = service.handle();
    for op in ops.clone() {
        handle.submit(op).unwrap();
    }
    let fds = service.shutdown();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap(), "reader saw no epoch progress");
    }

    // Routing: each shard holds exactly its id partition, and the union
    // of live ids matches a clean sequential apply over one engine.
    assert_eq!(fds.len(), shards);
    let mut union: Vec<PointId> = Vec::new();
    for (i, fd) in fds.iter().enumerate() {
        fd.check_invariants().unwrap();
        for p in fd.live_points() {
            assert_eq!(
                (p.id() % shards as u64) as usize,
                i,
                "shard {i} holds foreign id {}",
                p.id()
            );
            union.push(p.id());
        }
    }
    union.sort_unstable();
    let mut seq = builder(d).build(initial).unwrap();
    for chunk in ops.chunks(50) {
        seq.apply_batch(chunk.to_vec()).unwrap();
    }
    let mut seq_ids: Vec<PointId> = seq.live_points().iter().map(Point::id).collect();
    seq_ids.sort_unstable();
    assert_eq!(union, seq_ids);

    // The final aggregate (readable through outstanding handles) agrees
    // with the drained group.
    let snap = handle.snapshot();
    assert_eq!(snap.stats.ops_applied, 400);
    assert_eq!(snap.stats.ops_rejected, 0);
    assert_eq!(snap.len, seq.len());
    assert_eq!(snap.stats.queue_depth, 0);
    let orphan = Op::Delete(0);
    assert!(matches!(
        handle.submit(orphan.clone()),
        Err(SubmitError::Disconnected(op)) if op == orphan
    ));
}

#[test]
fn aggregate_merges_and_trims_to_r() {
    let d = 2;
    let shards = 3;
    // A spread of strong points so every shard's solution is non-trivial.
    let initial: Vec<Point> = (0..90)
        .map(|i| {
            let t = (i as f64) / 90.0;
            Point::new_unchecked(i, vec![t, 1.0 - t])
        })
        .collect();
    let service = RmsService::start(
        builder(d),
        initial,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let snap = service.snapshot();
    assert_eq!(snap.epochs, vec![0; shards]);
    assert_eq!(snap.len, 90);
    assert!(
        snap.result.len() <= 4,
        "union of {shards} shard solutions must be re-trimmed to r"
    );
    // Sorted by id, like the single-service snapshot.
    let ids = snap.result_ids();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
    // Repeated reads at an unchanged shard state hit the merge cache.
    let again = service.snapshot();
    assert!(Arc::ptr_eq(&snap, &again));
    let fds = service.shutdown();
    for fd in &fds {
        fd.check_invariants().unwrap();
    }
}

#[test]
fn single_shard_group_behaves_like_the_plain_service() {
    let d = 2;
    let initial = random_points(21, 60, d);
    let ops = random_ops(22, &initial, 80, d);
    let sharded = RmsService::start(
        builder(d),
        initial.clone(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // One shard short-circuits the merge path: reads return the shard's
    // published `Arc` itself, the registry carries no merge-cache family
    // and no `shard=` label, and watchers register with the applier
    // directly, so every delta carries a one-entry epoch vector.
    let handle = sharded.handle();
    let (first, second) = (handle.snapshot(), handle.snapshot());
    assert_eq!(first.epochs, second.epochs);
    assert!(Arc::ptr_eq(&first, &second));
    let exposition = sharded.registry().encode();
    assert!(!exposition.contains("rms_shard_merge_"), "{exposition}");
    assert!(!exposition.contains("shard=\""), "{exposition}");
    let rx = handle.watch();
    assert_eq!(rx.base().epochs.len(), 1);
    for op in ops.clone() {
        sharded.submit(op).unwrap();
    }
    let mut fds = sharded.shutdown();
    let fd = fds.pop().unwrap();
    fd.check_invariants().unwrap();
    let deltas: Vec<_> = rx.iter().collect();
    assert!(!deltas.is_empty());
    for delta in &deltas {
        assert_eq!(delta.epochs, vec![delta.version]);
    }

    let plain = rms_serve::RmsService::start(builder(d), initial, ServeConfig::default()).unwrap();
    for op in ops {
        plain.submit(op).unwrap();
    }
    let fd2 = plain.shutdown().remove(0);
    assert_eq!(fd.len(), fd2.len());
    assert_eq!(fd.result_ids(), fd2.result_ids());
}
