//! The serving stack with the metrics registry disabled
//! (`KRMS_METRICS_DISABLED=1`: every instrument a no-op). STATS, QUERY,
//! the in-process delta stream and METRICS must behave exactly as with a
//! live registry, for a single service and a shard group alike.
//!
//! This file holds a single test on purpose: the variable is set at its
//! start, and a test binary of its own keeps that process-local.

use fdrms::FdRms;
use rms_client::{ClientOp, RmsClient};
use rms_geom::{Point, PointId};
use rms_serve::{RmsServer, RmsService, ServeConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn serving_with_the_registry_disabled() {
    std::env::set_var(rms_metrics::DISABLE_ENV, "1");
    for shards in [1usize, 2] {
        let initial: Vec<Point> = (0..60)
            .map(|i| Point::new_unchecked(i, vec![(i as f64) / 60.0, 1.0 - (i as f64) / 60.0]))
            .collect();
        let service = RmsService::start(
            FdRms::builder(2).r(4).max_utilities(64).seed(3),
            initial,
            ServeConfig {
                shards,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert!(
            !service.registry().is_enabled(),
            "the service must build its registry from the environment"
        );
        let rx = service.watch();
        let handle = service.handle();
        let server = RmsServer::bind("127.0.0.1:0", service).expect("bind ephemeral port");
        let addr = server.local_addr().unwrap();
        let server = std::thread::spawn(move || server.run().expect("server run"));

        // A wire reader polling QUERY through the whole ingestion.
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = RmsClient::connect(addr).expect("reader connect");
                let mut last: Vec<u64> = Vec::new();
                loop {
                    let q = client.query().expect("query");
                    assert_eq!(q.epochs.len(), shards);
                    assert!(
                        last.is_empty() || q.epochs.iter().zip(&last).all(|(n, l)| n >= l),
                        "QUERY epochs regressed: {last:?} -> {:?}",
                        q.epochs
                    );
                    last = q.epochs;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            })
        };

        // 40 inserts, 5 deletes and 5 updates the engine accepts, plus a
        // duplicate insert of a live id and a delete of an unknown id,
        // which it rejects.
        let ops: Vec<ClientOp> = (1_000..1_040)
            .map(|id| ClientOp::insert(id, vec![0.5 + (id % 7) as f64 / 20.0, 0.6]))
            .chain((0..5).map(ClientOp::delete))
            .chain((5..10).map(|id| ClientOp::update(id, vec![0.3, 0.7])))
            .chain([
                ClientOp::insert(20, vec![0.5, 0.5]),
                ClientOp::delete(99_999),
            ])
            .collect();
        let mut writer = RmsClient::connect(addr).expect("writer connect");
        for chunk in ops.chunks(8) {
            assert_eq!(writer.submit_batch(chunk).expect("batch"), chunk.len());
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = writer.stats().expect("stats");
            let (applied, rejected) = (stats.ops_applied(), stats.ops_rejected());
            if applied.unwrap_or(0) + rejected.unwrap_or(0) == ops.len() as u64 {
                assert_eq!((applied, rejected), (Some(50), Some(2)), "S={shards}");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "S={shards}: only {applied:?} applied, {rejected:?} rejected"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let final_q = writer.query().expect("final query");
        assert_eq!(final_q.n, 60 + 40 - 5);
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread");

        let body = writer
            .metrics()
            .expect("METRICS answers with the registry disabled");
        assert!(
            body.contains("# TYPE rms_tcp_requests_total counter"),
            "{body}"
        );

        writer.shutdown().expect("shutdown");
        let fds = server.join().expect("server thread");
        assert_eq!(fds.len(), shards);
        for fd in &fds {
            fd.check_invariants().unwrap();
        }

        // Shutdown closed the delta stream; its replay from the base view
        // must land on the final published solution.
        let mut solution: BTreeMap<PointId, Point> = rx
            .base()
            .result
            .iter()
            .map(|p| (p.id(), p.clone()))
            .collect();
        let mut deltas = 0usize;
        for delta in rx.iter() {
            delta.apply_to(&mut solution);
            deltas += 1;
        }
        assert!(deltas > 0, "S={shards}: the writes published no delta");
        let published = handle.snapshot();
        let replayed: Vec<PointId> = solution.into_keys().collect();
        assert_eq!(replayed, published.result_ids(), "S={shards}");
        assert!(published
            .epochs
            .iter()
            .zip(&final_q.epochs)
            .all(|(p, q)| p >= q));
    }
}
