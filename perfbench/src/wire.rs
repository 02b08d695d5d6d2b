//! The whole client path: an `RmsServer` on loopback over an
//! `RmsService` with a write-ahead log, driven through `rms-client` by
//! two generator threads on two connections.
//!
//! Connection 1 (this thread) sends `BATCH` frames and `QUERY`s.
//! Connection 2 (the watcher thread) holds `SUBSCRIBE every=1` and, for
//! each `DELTA` it receives, drains an in-process `RmsHandle::watch()` up
//! to the same version to learn how many ops that delta covers. That
//! yields, per op, the moment it became visible to a subscriber.

use crate::engine::builder;
use crate::layers::{ratio, Layer};
use crate::open_loop::{self, Target};
use crate::stats::{block_rates, Samples};
use crate::stream::{live_points, OpSource, Shape};
use crate::trace::Tracer;
use crate::{
    Gate, Params, Phases, RateSearch, StepOutcome, Workload, LOW_RATE, MRR_SEED, ROUNDS,
    SHAPE_SEED, SPLIT, THROUGHPUT_BLOCKS, WIRE_FRAME,
};
use fdrms::{FdRms, Op};
use rand::{rngs::StdRng, SeedableRng};
use rms_client::{ClientOp, RmsClient};
use rms_eval::RegretEstimator;
use rms_geom::{Point, PointId};
use rms_serve::wal::Wal;
use rms_serve::{RmsHandle, RmsServer, RmsService, ServeConfig};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The serving settings: WAL on, `wal_fsync=false` (the CLI default).
fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4_096,
        max_batch: 1_024,
        wal_fsync: false,
        ..ServeConfig::default()
    }
}

struct Server {
    addr: SocketAddr,
    handle: RmsHandle,
    join: JoinHandle<std::io::Result<Vec<FdRms>>>,
    wal: PathBuf,
}

/// Service start + WAL open + bind, up to the first `HELLO` ack.
fn start(
    p: &Params,
    initial: &[Point],
    dir: &Path,
    tr: &mut Tracer,
    i: u64,
) -> (Server, RmsClient, f64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the WAL directory");
    let wal = dir.join("rms.wal");
    let span = tr.begin("bench.setup", i, initial.len() as u64);
    let t = Instant::now();
    let s = tr.begin("rms-serve.start_with_wal", i, 0);
    let service = RmsService::start_with_wal(builder(p), initial.to_vec(), serve_config(), &wal)
        .expect("start the service");
    tr.end(s);
    let handle = service.handle();
    let s = tr.begin("rms-serve.bind", i, 0);
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.local_addr().expect("local address");
    let join = std::thread::spawn(move || server.run());
    tr.end(s);
    let s = tr.begin("rms-client.connect", i, 0);
    let client = RmsClient::connect(addr).expect("connect and HELLO");
    tr.end(s);
    let secs = t.elapsed().as_secs_f64();
    tr.end(span);
    (
        Server {
            addr,
            handle,
            join,
            wal,
        },
        client,
        secs,
    )
}

/// `(delivered at, ops covered so far)` for every `DELTA` received.
type Timeline = Arc<Mutex<Vec<(Instant, u64)>>>;

struct Watcher {
    join: JoinHandle<(Vec<u64>, bool, Tracer)>,
    timeline: Timeline,
}

fn watch(server: &Server, mut tr: Tracer) -> Watcher {
    let rx = server.handle.watch();
    let mut sub = RmsClient::connect(server.addr)
        .expect("subscriber connect")
        .subscribe(1)
        .expect("SUBSCRIBE every=1");
    let timeline: Timeline = Arc::new(Mutex::new(Vec::new()));
    let tl = Arc::clone(&timeline);
    let join = std::thread::spawn(move || {
        let mut covered = rx.base().stats().ops_applied;
        let mut version = rx.base().version();
        let mut monotone = true;
        let mut last = 0;
        loop {
            let span = tr.begin("rms-client.next_delta", version, 0);
            let Some(delta) = sub.next_delta().expect("delta stream") else {
                tr.end(span);
                break;
            };
            tr.end(span);
            let at = Instant::now();
            monotone &= delta.version > last;
            last = delta.version;
            let span = tr.begin("rms-serve.watch_recv", delta.version, 0);
            while version < delta.version {
                let d = rx
                    .recv()
                    .expect("in-process watch outlives the wire stream");
                covered += d.stats.ops_applied;
                version = d.version;
            }
            tr.end(span);
            tl.lock().expect("timeline lock").push((at, covered));
        }
        (sub.ids(), monotone, tr)
    });
    Watcher { join, timeline }
}

/// Registry values from one `METRICS` scrape, keyed by series.
struct Scrape(HashMap<String, f64>);

impl Scrape {
    fn take(c: &mut RmsClient) -> Self {
        let text = c.metrics().expect("METRICS");
        Self(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_owned(), v.parse().ok()?))
                })
                .collect(),
        )
    }
}

/// Registry movement over one or more steps: per-series increments plus
/// the wall time, ops, log growth and queue-depth samples they cover.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    series: HashMap<String, f64>,
    wall: f64,
    ops: f64,
    wal_bytes: f64,
    depth: Samples,
}

impl Delta {
    fn between(
        a: &Scrape,
        b: &Scrape,
        wall: f64,
        ops: f64,
        wal_bytes: f64,
        depth: Samples,
    ) -> Self {
        let series =
            b.0.iter()
                .map(|(k, v)| (k.clone(), v - a.0.get(k).copied().unwrap_or(0.0)))
                .collect();
        Self {
            series,
            wall,
            ops,
            wal_bytes,
            depth,
        }
    }

    pub fn add(&mut self, o: &Delta) {
        for (k, v) in &o.series {
            *self.series.entry(k.clone()).or_default() += v;
        }
        self.wall += o.wall;
        self.ops += o.ops;
        self.wal_bytes += o.wal_bytes;
        self.depth.extend(&o.depth);
    }

    /// Sum over every series of `family` (all label sets).
    fn sum(&self, family: &str) -> f64 {
        self.series
            .iter()
            .filter(|(k, _)| k.split('{').next() == Some(family))
            .map(|(_, v)| v)
            .sum()
    }

    fn get(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// The serving layers' numbers: means from exact `_sum`/`_count`
    /// pairs, rates per wall second, counts per op or per publish.
    pub fn layers(&self) -> Vec<Layer> {
        let d = |f: &str| self.sum(f);
        let mean_us = |f: &str| 1e6 * ratio(d(&format!("{f}_sum")), d(&format!("{f}_count")));
        let verb_us = |v: &str| {
            1e6 * ratio(
                self.get(&format!("rms_tcp_request_seconds_sum{{verb=\"{v}\"}}")),
                self.get(&format!("rms_tcp_request_seconds_count{{verb=\"{v}\"}}")),
            )
        };
        let publishes = d("rms_applier_snapshot_publishes_total");
        vec![
            (
                "rms-serve.apply_us_mean",
                mean_us("rms_applier_apply_seconds"),
            ),
            (
                "rms-serve.apply_busy_frac",
                ratio(d("rms_applier_apply_seconds_sum"), self.wall),
            ),
            (
                "rms-serve.batch_ops_mean",
                ratio(
                    d("rms_applier_batch_ops_sum"),
                    d("rms_applier_batch_ops_count"),
                ),
            ),
            (
                "rms-serve.publish_us_mean",
                mean_us("rms_applier_publish_seconds"),
            ),
            ("rms-serve.epochs_per_s", ratio(publishes, self.wall)),
            (
                "rms-serve.wal_appends_per_op",
                ratio(d("rms_wal_appends_total"), self.ops),
            ),
            (
                "rms-serve.wal_bytes_per_op",
                ratio(self.wal_bytes, self.ops),
            ),
            ("rms-serve.queue_depth_p99", self.depth.quantile(0.99)),
            ("rms-net.batch_request_us_mean", verb_us("batch")),
            ("rms-net.query_request_us_mean", verb_us("query")),
            ("rms-net.fanout_us_mean", mean_us("rms_net_fanout_seconds")),
            (
                "rms-net.encodes_per_publish",
                ratio(d("rms_net_delta_encodes_total"), publishes),
            ),
            (
                "rms-net.delta_bytes_per_publish",
                ratio(d("rms_tcp_delta_bytes_total"), publishes),
            ),
            (
                "rms-net.wakeups_per_request",
                ratio(d("rms_net_poll_wakeups_total"), d("rms_tcp_requests_total")),
            ),
            (
                "rms-net.evicted_subscribers",
                d("rms_net_evicted_subscribers_total"),
            ),
        ]
    }
}

struct Client<'a> {
    conn: RmsClient,
    handle: RmsHandle,
    timeline: Timeline,
    stream: &'a mut dyn OpSource,
    tr: &'a mut Tracer,
    p: &'a Params,
    sent: u64,
    frames: Vec<usize>,
    log: Vec<Op>,
    last_epoch: u64,
    epochs_monotone: bool,
    failed: u64,
}

fn client_op(op: &Op) -> ClientOp {
    match op {
        Op::Insert(p) => ClientOp::insert(p.id(), p.coords().to_vec()),
        Op::Delete(id) => ClientOp::delete(*id),
        Op::Update(p) => ClientOp::update(p.id(), p.coords().to_vec()),
    }
}

impl Client<'_> {
    /// Sends `n` ops as one `BATCH`; returns the ack instant and the
    /// round trip in µs.
    fn frame(&mut self, n: usize) -> (Instant, f64) {
        let ops: Vec<Op> = (0..n).map(|_| self.stream.next_op()).collect();
        let wire: Vec<ClientOp> = ops.iter().map(client_op).collect();
        if self.p.trace {
            self.log.extend(ops);
            self.frames.push(n);
        }
        let span = self
            .tr
            .begin("rms-client.submit_batch", self.sent, n as u64);
        let t = Instant::now();
        let acked = self.conn.submit_batch(&wire);
        let done = Instant::now();
        self.tr.end(span);
        match acked {
            Ok(k) if k == n => {}
            other => {
                eprintln!("BATCH of {n} not fully acked: {other:?}");
                self.failed += n as u64;
            }
        }
        self.sent += n as u64;
        (done, (done - t).as_secs_f64() * 1e6)
    }

    fn query(&mut self) -> (Vec<PointId>, f64) {
        let span = self.tr.begin("rms-client.query", self.sent, 0);
        let t = Instant::now();
        let q = self.conn.query().expect("QUERY");
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.tr.end(span);
        self.epochs_monotone &= q.epochs[0] >= self.last_epoch;
        self.last_epoch = q.epochs[0];
        (q.ids, us)
    }

    fn visible(&self) -> u64 {
        self.timeline
            .lock()
            .expect("timeline lock")
            .last()
            .map_or(0, |&(_, c)| c)
    }

    /// Waits until a `DELTA` has covered every op sent.
    fn quiesce(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.visible() < self.sent {
            if Instant::now() > deadline {
                eprintln!(
                    "quiesce: {} sent, {} visible after 30 s",
                    self.sent,
                    self.visible()
                );
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Per-op visible latency (ms) for ops `first..first+n` due at
    /// `due(i - first)`.
    fn visible_ms(&self, first: u64, due: &[Instant]) -> Samples {
        let tl = self.timeline.lock().expect("timeline lock");
        let mut out = Samples::default();
        let mut at = tl.partition_point(|&(_, c)| c <= first);
        for (j, d) in due.iter().enumerate() {
            let op = first + j as u64 + 1;
            while at < tl.len() && tl[at].1 < op {
                at += 1;
            }
            let seen = tl.get(at).map_or_else(Instant::now, |&(t, _)| t);
            out.push(seen.saturating_duration_since(*d).as_secs_f64() * 1e3);
        }
        out
    }

    fn wal_bytes(&self, wal: &Path) -> f64 {
        std::fs::metadata(wal).map_or(0.0, |m| m.len() as f64)
    }

    /// Closed loop: frames of `shape`, each sent when the previous one is
    /// acked. `checkpoints` mrr probes (quiesce, `QUERY`, estimate) run
    /// outside the timed region.
    /// With `query_every = Some(k)`, a `QUERY` follows every `k`th frame
    /// (outside the timed region).
    fn closed_loop(
        &mut self,
        shape: Shape,
        dur: Duration,
        checkpoints: usize,
        query_every: Option<usize>,
        est: &RegretEstimator,
        wal: &Path,
    ) -> (Samples, Samples, StepOutcome) {
        let phase = self.tr.begin("phase.closed", 0, 0);
        let mut rng = StdRng::seed_from_u64(self.p.seed ^ SHAPE_SEED);
        let before = Scrape::take(&mut self.conn);
        let (wal0, first, t0) = (self.wal_bytes(wal), self.sent, Instant::now());
        let mut timed = Duration::ZERO;
        let mut frames = Vec::new();
        let mut rtt = Samples::default();
        let mut mrr = Samples::default();
        let mut queries = Samples::default();
        let mut depth = Samples::default();
        let mut next_cp = 1;
        while timed < dur {
            let n = shape.next(&mut rng);
            depth.push(self.handle.queue_depth() as f64);
            let (_, us) = self.frame(n);
            timed += Duration::from_secs_f64(us / 1e6);
            frames.push((n as f64, us));
            rtt.push(us);
            if query_every.is_some_and(|k| frames.len().is_multiple_of(k)) {
                queries.push(self.query().1);
            }
            if next_cp <= checkpoints && timed >= dur.mul_f64(next_cp as f64 / checkpoints as f64) {
                let span = self.tr.begin("eval.mrr", next_cp as u64, 0);
                self.quiesce();
                let (ids, _) = self.query();
                let live = self.stream.live();
                let q: Vec<Point> = ids
                    .iter()
                    .filter_map(|id| live.get(id).map(|c| Point::new_unchecked(*id, c.clone())))
                    .collect();
                if q.len() != ids.len() {
                    eprintln!("QUERY returned ids that are not live");
                    self.failed += 1;
                }
                mrr.push(est.mrr(&live_points(&live), &q, self.p.k));
                self.tr.end(span);
                next_cp += 1;
            }
        }
        let ops = (self.sent - first) as f64;
        self.quiesce();
        let wall = t0.elapsed().as_secs_f64();
        let after = Scrape::take(&mut self.conn);
        let mut step = StepOutcome::new(ops / timed.as_secs_f64());
        step.block_rates = block_rates(&frames, THROUGHPUT_BLOCKS);
        step.registry = Delta::between(
            &before,
            &after,
            wall,
            ops,
            self.wal_bytes(wal) - wal0,
            depth,
        );
        step.client_batch_us = rtt.clone();
        step.client_query_us = queries;
        self.tr.end(phase);
        (rtt, mrr, step)
    }

    /// One open-loop step at `rate` ops/s for `dur` (see `open_loop`),
    /// with the registry's movement over it.
    fn open_loop(
        &mut self,
        rate: f64,
        dur: Duration,
        name: &'static str,
        wal: &Path,
    ) -> StepOutcome {
        let phase = self.tr.begin(name, 0, 0);
        let before = Scrape::take(&mut self.conn);
        let (wal0, t0, p) = (self.wal_bytes(wal), Instant::now(), self.p);
        let mut target = OpenTarget {
            first: self.sent,
            c: self,
            depth: Samples::default(),
            batch_us: Samples::default(),
            query_us: Samples::default(),
        };
        let mut out = open_loop::run(&mut target, p, rate, dur);
        let OpenTarget {
            depth,
            batch_us,
            query_us,
            ..
        } = target;
        out.client_batch_us = batch_us;
        out.client_query_us = query_us;
        let wall = t0.elapsed().as_secs_f64();
        let after = Scrape::take(&mut self.conn);
        out.registry = Delta::between(
            &before,
            &after,
            wall,
            out.ack_ms.len() as f64,
            self.wal_bytes(wal) - wal0,
            depth,
        );
        self.tr.end(phase);
        out
    }
}

/// Connection 1 as an open loop's target: a frame is one `BATCH`, an op
/// is visible when a `DELTA` covering it reaches the subscriber. The
/// loop sleeps between due times: with two vCPUs, a spinning generator
/// would take a core from the server it measures.
struct OpenTarget<'c, 'a> {
    c: &'c mut Client<'a>,
    /// Ops sent before the step.
    first: u64,
    depth: Samples,
    batch_us: Samples,
    query_us: Samples,
}

impl Target for OpenTarget<'_, '_> {
    const SPIN: bool = false;

    fn submit(&mut self, n: usize) -> Option<Instant> {
        self.depth.push(self.c.handle.queue_depth() as f64);
        let (acked, us) = self.c.frame(n);
        self.batch_us.push(us);
        Some(acked)
    }

    fn query(&mut self) {
        let (_, us) = self.c.query();
        self.query_us.push(us);
    }

    fn unseen(&self) -> u64 {
        self.c.sent - self.c.visible()
    }

    fn visible_ms(&mut self, dues: &[Instant], _acks: &[Instant]) -> (Samples, bool) {
        let all = self.c.quiesce();
        (self.c.visible_ms(self.first, dues), all)
    }
}

/// Which phases a wire run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The wire-open workload: `ROUNDS` rounds of every phase.
    Full,
    /// One short closed-loop replay of another workload's ops (with a
    /// `QUERY` every tenth frame), for the serving layers' numbers in its
    /// traced run.
    Replay(Duration),
}

pub struct WireRun {
    pub phases: Phases,
    /// Serving-layer numbers: over the `high` slices in `Full` mode, over
    /// the replay in `Replay` mode.
    pub layers: Vec<Layer>,
    /// The last round's initial tuples, ops and the frames they went out in.
    pub initial: Vec<Point>,
    pub log: Vec<Op>,
    pub frames: Vec<usize>,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the wire path in rounds, each from a fresh set-up (service, WAL
/// in a fresh directory, bind, `HELLO`) on the live set the stream has
/// reached, with a slice of every phase, then the gates and a clean
/// `SHUTDOWN` (see `engine::run` for why phases are spread over rounds).
pub fn run(
    w: &Workload,
    p: &Params,
    stream: &mut dyn OpSource,
    mode: Mode,
    tr: &mut Tracer,
) -> WireRun {
    let dir = crate::host::out_dir().join(format!("wal-{}", std::process::id()));
    let est = RegretEstimator::new(p.d, w.mrr_dirs, MRR_SEED);
    let slice = |i: usize| p.seconds.mul_f64(SPLIT[i] / ROUNDS as f64);
    let rounds = if mode == Mode::Full { ROUNDS } else { 1 };
    let mut ph = Phases::default();
    let mut search = RateSearch::new(w.high);
    let mut registry = Delta::default();
    let mut run = WireRun {
        phases: Phases::default(),
        layers: Vec::new(),
        initial: Vec::new(),
        log: Vec::new(),
        frames: Vec::new(),
        gates: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for round in 0..rounds {
        let span = tr.begin("bench.round", round as u64, 0);
        ph.reference_ms.push(crate::host::reference_loop_ms());
        let initial = live_points(&stream.live());
        let reps = if mode == Mode::Full { w.setup_reps } else { 1 };
        for _ in 1..reps {
            let (server, mut conn, secs) = start(p, &initial, &dir, tr, round as u64);
            ph.setup_s.push(secs);
            conn.shutdown().expect("SHUTDOWN");
            let _ = server
                .join
                .join()
                .expect("server thread")
                .expect("server run");
        }
        let (server, conn, secs) = start(p, &initial, &dir, tr, round as u64);
        ph.setup_s.push(secs);
        let watcher = watch(&server, tr.fork("gen2"));
        let mut c = Client {
            conn,
            handle: server.handle.clone(),
            timeline: Arc::clone(&watcher.timeline),
            stream: &mut *stream,
            tr: &mut *tr,
            p,
            sent: 0,
            frames: Vec::new(),
            log: Vec::new(),
            last_epoch: 0,
            epochs_monotone: true,
            failed: 0,
        };
        let wal = server.wal.clone();
        match mode {
            Mode::Replay(dur) => {
                let (rtt, _, step) = c.closed_loop(w.shape, dur, 0, Some(10), &est, &wal);
                ph.ops_per_s.extend(step.block_rates.iter().copied());
                ph.apply_us.extend(&rtt);
                registry.add(&step.registry);
                ph.low.absorb(step);
            }
            Mode::Full => {
                let (rtt, mrr, step) = c.closed_loop(
                    Shape::Fixed(WIRE_FRAME),
                    slice(0),
                    w.checkpoints / ROUNDS,
                    None,
                    &est,
                    &wal,
                );
                ph.ops_per_s.extend(step.block_rates.iter().copied());
                ph.apply_us.extend(&rtt);
                ph.round_apply_p50.push(rtt.median());
                ph.mrr.extend(&mrr);
                ph.low
                    .absorb(c.open_loop(LOW_RATE, slice(1), "phase.low", &wal));
                let high = c.open_loop(w.high, slice(2), "phase.high", &wal);
                registry.add(&high.registry);
                ph.high.absorb(high);
                let step = c.open_loop(search.rate(), slice(3), "phase.search", &wal);
                search.record(step.passes());
            }
        }
        finish(c, server, watcher, &wal, p, &mut run);
        run.initial = initial;
        tr.end(span);
    }
    if mode == Mode::Full {
        ph.max_rate = search.result();
        ph.search = search.steps;
    }
    let _ = std::fs::remove_dir_all(&dir);
    // The client-side round trips of the step the registry numbers cover.
    let step = if mode == Mode::Full {
        &ph.high
    } else {
        &ph.low
    };
    run.layers = registry.layers();
    run.layers
        .push(("rms-client.batch_rtt_us", step.client_batch_us.mean()));
    run.layers
        .push(("rms-client.query_rtt_us", step.client_query_us.mean()));
    run.phases = ph;
    run
}

/// The wire gates, then a clean `SHUTDOWN`: every acked op applied and
/// none rejected, `QUERY` epochs monotone, `|Q| <= r` and `Q` live, the
/// subscriber's replay equal to the final `QUERY`, the engine's live set
/// equal to the stream's, and the reopened WAL recovering exactly it.
fn finish(
    mut c: Client,
    server: Server,
    watcher: Watcher,
    wal: &Path,
    p: &Params,
    run: &mut WireRun,
) {
    let gates = &mut run.gates;
    gates.push(Gate::new(
        "every acked op visible to the subscriber",
        c.quiesce(),
        String::new(),
    ));
    let stats = c.conn.stats().expect("STATS");
    gates.push(Gate::new(
        "ops_applied == acked, ops_rejected == 0",
        stats.ops_applied() == Some(c.sent) && stats.ops_rejected() == Some(0),
        format!(
            "acked={} applied={:?} rejected={:?}",
            c.sent,
            stats.ops_applied(),
            stats.ops_rejected()
        ),
    ));
    let (final_ids, _) = c.query();
    gates.push(Gate::new(
        "QUERY epochs monotone",
        c.epochs_monotone,
        String::new(),
    ));
    let live = c.stream.live();
    gates.push(Gate::new(
        "|Q| <= r",
        final_ids.len() <= p.r,
        format!("|Q|={}", final_ids.len()),
    ));
    gates.push(Gate::new(
        "Q ⊆ live ids",
        final_ids.iter().all(|id| live.contains_key(id)),
        String::new(),
    ));
    let span = c.tr.begin("rms-client.shutdown", 0, 0);
    c.conn.shutdown().expect("SHUTDOWN");
    let fds = server
        .join
        .join()
        .expect("server thread")
        .expect("server run");
    c.tr.end(span);
    let (sub_ids, versions_monotone, sub_spans) = watcher.join.join().expect("subscriber thread");
    c.tr.absorb(sub_spans);
    let mut sorted_final = final_ids;
    sorted_final.sort_unstable();
    gates.push(Gate::new(
        "subscriber replay == final QUERY",
        sub_ids == sorted_final,
        String::new(),
    ));
    gates.push(Gate::new(
        "DELTA versions increase",
        versions_monotone,
        String::new(),
    ));
    let engine_live: BTreeMap<PointId, Vec<f64>> = fds
        .iter()
        .flat_map(FdRms::live_points)
        .map(|q| (q.id(), q.coords().to_vec()))
        .collect();
    gates.push(Gate::new(
        "engine live set equals the stream's",
        engine_live == live,
        String::new(),
    ));
    let recovered = recover(wal);
    gates.push(Gate::new(
        "WAL reopened after SHUTDOWN recovers the final live set",
        recovered.as_ref() == Some(&live),
        format!("recovered {} tuples", recovered.map_or(0, |r| r.len())),
    ));
    gates.push(Gate::new(
        "no failed ops",
        c.failed == 0,
        format!("failed={}", c.failed),
    ));
    run.attempted += c.sent;
    run.failed += c.failed;
    run.log = c.log;
    run.frames = c.frames;
}

/// The live set a reopened log replays to: its checkpoint plus the ops
/// after it.
fn recover(wal: &Path) -> Option<BTreeMap<PointId, Vec<f64>>> {
    let (_, replay) = Wal::open(wal).ok()?;
    let mut live: BTreeMap<PointId, Vec<f64>> = replay
        .checkpoint?
        .into_iter()
        .map(|q| (q.id(), q.coords().to_vec()))
        .collect();
    for op in replay.ops {
        match op {
            Op::Insert(q) | Op::Update(q) => {
                live.insert(q.id(), q.coords().to_vec());
            }
            Op::Delete(id) => {
                live.remove(&id);
            }
        }
    }
    Some(live)
}
