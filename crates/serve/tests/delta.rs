//! Soundness of the push-subscription delta stream: a subscriber that
//! applies every received [`SnapshotDelta`] to its starting snapshot
//! reproduces the server's published solution at each delivered version
//! — for the single service and for a 4-shard group — and the stream is
//! gap-free (each delta continues exactly where the previous ended).

use fdrms::{FdRms, FdRmsBuilder, Op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rms_geom::{Point, PointId};
use rms_serve::{ResultSnapshot, RmsService, ServeConfig, SnapshotDelta};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

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

fn solution_map(view: &ResultSnapshot) -> BTreeMap<PointId, Point> {
    view.result.iter().map(|p| (p.id(), p.clone())).collect()
}

fn ids(solution: &BTreeMap<PointId, Point>) -> Vec<PointId> {
    solution.keys().copied().collect()
}

/// Drives `ops` through a service of any shard count while a subscriber collects deltas
/// and an independent poller records the published solution at every
/// version it observes. Checks, in order:
///
/// 1. the delta chain is gap-free from the subscription's base view;
/// 2. at every delivered version the reconstructed solution equals the
///    published solution the poller saw at that version (when the poller
///    observed it — poller and subscriber sample the same serialized
///    publish/merge sequence, so matching versions mean matching
///    states);
/// 3. after quiescing, the reconstruction equals the final published
///    solution exactly.
fn check_delta_stream(backend: RmsService, ops: Vec<Op>) {
    let total = ops.len() as u64;
    let rx = backend.watch();
    let handle = backend.handle();

    // Writer thread: sustained ingestion while the main thread polls.
    let writer = {
        let backend_handle = backend.handle();
        std::thread::spawn(move || {
            for op in ops {
                backend_handle.submit(op).unwrap();
            }
        })
    };

    // Poll the published view during ingestion, recording version → ids.
    let mut observed: HashMap<u64, Vec<PointId>> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let view = handle.snapshot();
        observed.insert(view.version(), view.result_ids());
        let stats = &view.stats;
        if stats.ops_applied + stats.ops_rejected >= total {
            break;
        }
        assert!(Instant::now() < deadline, "ingestion never settled");
        std::thread::yield_now();
    }
    writer.join().unwrap();
    // One more settled read: the final published state.
    let final_view = handle.snapshot();
    observed.insert(final_view.version(), final_view.result_ids());
    let final_version = final_view.version();
    let final_ids = final_view.result_ids();

    // Give the (asynchronous, for the sharded router) delta path time to
    // catch up with the final state, then close the stream.
    let mut version = rx.base().version();
    let mut deltas: Vec<SnapshotDelta> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while version < final_version {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(delta) => {
                version = delta.version;
                deltas.push(delta);
            }
            Err(_) => assert!(
                Instant::now() < deadline,
                "delta stream never reached the final version \
                 (at {version}, expected {final_version})"
            ),
        }
    }
    drop(backend); // shutdown closes the stream

    let mut matched = 0usize;
    let mut at = rx.base().version();
    let mut solution = solution_map(rx.base());
    for delta in &deltas {
        assert_eq!(
            delta.from_version, at,
            "delta chain has a gap: delta from {} applied at {at}",
            delta.from_version
        );
        assert!(delta.version > delta.from_version, "versions must advance");
        assert_eq!(
            delta.version,
            delta.epochs.iter().sum::<u64>(),
            "version is the epoch-vector sum"
        );
        delta.apply_to(&mut solution);
        at = delta.version;
        if let Some(expected) = observed.get(&at) {
            assert_eq!(
                &ids(&solution),
                expected,
                "reconstruction diverged from the published solution at version {at}"
            );
            matched += 1;
        }
    }
    assert_eq!(at, final_version, "stream ended before the final version");
    assert_eq!(
        ids(&solution),
        final_ids,
        "reconstruction diverged from the final published solution"
    );
    // The final version is always cross-checked (the poller records it
    // after quiescing and the stream is driven to it); intermediate
    // overlap depends on scheduling but is large in practice.
    assert!(
        matched >= 1,
        "no cross-checked versions — the poller and the stream never lined up"
    );
    assert!(
        deltas.len() >= 2,
        "stream degenerated to {} delta(s); expected real streaming",
        deltas.len()
    );
}

#[test]
fn single_service_delta_stream_reproduces_published_solutions() {
    let d = 3;
    let initial = random_points(1, 200, d);
    let ops = random_ops(2, &initial, 400, d);
    let service = RmsService::start(
        builder(d),
        initial,
        ServeConfig {
            queue_capacity: 32, // backpressure → many small epochs
            max_batch: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    check_delta_stream(service, ops);
}

#[test]
fn sharded_delta_stream_reproduces_published_solutions() {
    let d = 3;
    let initial = random_points(3, 200, d);
    let ops = random_ops(4, &initial, 400, d);
    let group = RmsService::start(
        builder(d),
        initial,
        ServeConfig {
            shards: 4,
            queue_capacity: 32,
            max_batch: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    check_delta_stream(group, ops);
}

/// A watcher registered mid-stream starts from the then-current snapshot
/// and still reconstructs exactly; a watcher registered after shutdown
/// gets an immediately-closed stream, not a hang.
#[test]
fn late_and_post_shutdown_watchers() {
    let d = 2;
    let initial = random_points(5, 80, d);
    let ops = random_ops(6, &initial, 120, d);
    let service = RmsService::start(builder(d), initial, ServeConfig::default()).unwrap();
    let handle = service.handle();
    for op in &ops[..60] {
        handle.submit(op.clone()).unwrap();
    }
    // Late subscriber: base is whatever has been published by now.
    let rx = handle.watch();
    let mut solution = solution_map(rx.base());
    for op in &ops[60..] {
        handle.submit(op.clone()).unwrap();
    }
    let fd = service.shutdown().remove(0);
    for delta in rx.iter() {
        delta.apply_to(&mut solution);
    }
    let expected: Vec<PointId> = fd.result().iter().map(Point::id).collect();
    assert_eq!(ids(&solution), expected);

    // Post-shutdown subscription: closed stream, base still readable.
    let rx = handle.watch();
    assert!(rx.recv().is_err(), "post-shutdown stream must be closed");
    assert!(rx.base().result.len() <= 4);
}
