//! Reader throughput under sustained ingestion: the serving subsystem's
//! headline experiment.
//!
//! Four disciplines absorb the same steady-state churn (alternating
//! fresh inserts and oldest-tuple deletions) for a fixed wall-clock
//! window while reader threads query the current solution as fast as
//! they can:
//!
//! * **blocking** — the pre-serve architecture: the engine behind a
//!   `Mutex`, the writer locking per operation, every reader locking to
//!   call `result()`.
//! * **service** — `rms_serve::RmsService`: one applier thread drains a
//!   bounded op queue into adaptive `apply_batch` calls and publishes
//!   immutable snapshots; readers clone an `Arc` and never touch the
//!   engine.
//! * **sharded** — `rms_serve::RmsService` with `ServeConfig::shards =
//!   S`: `S` independent appliers, each owning the id partition
//!   `id % S`, one writer thread per shard, readers merging the
//!   per-shard snapshots. Both in-process service disciplines run
//!   through the same harness — they differ only in the shard count.
//! * **tcp** — the full wire path: an `RmsServer` on loopback driven by
//!   the typed `rms-client` crate. The writer pipelines mutations with
//!   protocol-v2 `BATCH` frames (one ack per batch), readers issue
//!   `QUERY` round-trips, and a `SUBSCRIBE` connection applies every
//!   pushed delta — at the end its reconstructed solution must equal the
//!   server's final `QUERY`, so the bench doubles as an end-to-end
//!   protocol check.
//! * **fanout** — the publish path under subscriber pressure: a child
//!   process (re-exec of this binary, so server and subscriber fds stay
//!   under separate per-process limits) holds `--fanout-subs`
//!   subscriptions — half with a server-side `ids=` filter — while the
//!   parent pulses single-op publishes and measures end-to-end delta
//!   delivery latency on its own probe subscription. The server's
//!   metrics then prove the encode-once contract: exactly one
//!   unfiltered encode per publish regardless of subscriber count, plus
//!   one per distinct filter.
//!
//! The interesting read is reader QPS and worst-case read latency during
//! ingestion: the service keeps reads at near-constant nanosecond-scale
//! latency (an `Arc` clone) regardless of write pressure, while the
//! blocking loop's readers stall behind maintenance (and the tcp
//! discipline shows what the wire adds on top).
//!
//! ```sh
//! cargo run --release -p rms-bench --bin serve -- \
//!     [--n N] [--d D] [--k K] [--r R] [--eps E] [--max-m M]
//!     [--readers T] [--secs S] [--read-qps Q]   (Q=0: readers spin)
//!     [--shards S]                              (0 disables the sharded phase)
//!     [--wire-batch B]                          (tcp phase batch size; 0 disables
//!                                                the tcp phase)
//!     [--fanout-subs N] [--fanout-pubs P]       (fanout phase scale; N=0 disables
//!                                                the fanout phase)
//!     [--json PATH]                             (emit a machine-readable
//!                                                per-phase report)
//! ```
//!
//! Set `KRMS_BENCH_SMOKE=1` (as CI does) for a sub-second configuration
//! that just proves the binary works.

use fdrms::{FdRms, Op};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rms_bench::report::{write_json, JsonArray, JsonObject};
use rms_client::{ClientOp, RmsClient};
use rms_data::generators;
use rms_eval::RegretEstimator;
use rms_geom::{Point, PointId};
use rms_serve::sync::recover_poisoned;
use rms_serve::{RmsServer, RmsService, ServeConfig};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Endless steady-state churn: alternating fresh inserts and deletions
/// of the oldest live tuple, database size constant. `partition` builds
/// a stream confined to one residue class of `id % shards`, so per-shard
/// writer threads manage disjoint id sets.
struct OpStream {
    live: VecDeque<PointId>,
    next: PointId,
    step: u64,
    rng: StdRng,
    d: usize,
    flip: bool,
}

impl OpStream {
    fn new(initial: &[Point], d: usize, seed: u64) -> Self {
        Self::partition(initial, d, seed, 0, 1)
    }

    fn partition(initial: &[Point], d: usize, seed: u64, shard: u64, shards: u64) -> Self {
        Self {
            live: initial
                .iter()
                .map(Point::id)
                .filter(|id| id % shards == shard)
                .collect(),
            next: 10_000_000 + shard,
            step: shards,
            rng: StdRng::seed_from_u64(seed),
            d,
            flip: false,
        }
    }

    fn next_op(&mut self) -> Op {
        self.flip = !self.flip;
        if self.flip {
            let p = Point::new_unchecked(self.next, (0..self.d).map(|_| self.rng.gen()).collect());
            self.live.push_back(self.next);
            self.next += self.step;
            Op::Insert(p)
        } else {
            Op::Delete(self.live.pop_front().expect("database never drains"))
        }
    }

    /// The same op, encoded for the wire client.
    fn next_client_op(&mut self) -> ClientOp {
        match self.next_op() {
            Op::Insert(p) => ClientOp::insert(p.id(), p.coords().to_vec()),
            Op::Delete(id) => ClientOp::delete(id),
            Op::Update(p) => ClientOp::update(p.id(), p.coords().to_vec()),
        }
    }
}

/// Per-reader tally: queries served, mean latency, and a log₂ latency
/// histogram (bucket `i` covers `[2^i, 2^(i+1))` ns) for percentiles —
/// raw maxima are dominated by scheduler preemption at these
/// granularities.
#[derive(Clone, Copy)]
struct ReadTally {
    queries: u64,
    total_ns: u64,
    max_ns: u64,
    buckets: [u64; 64],
}

impl Default for ReadTally {
    fn default() -> Self {
        Self {
            queries: 0,
            total_ns: 0,
            max_ns: 0,
            buckets: [0; 64],
        }
    }
}

impl ReadTally {
    fn record(&mut self, elapsed: Duration) {
        let ns = (elapsed.as_nanos() as u64).max(1);
        self.queries += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.buckets[63 - ns.leading_zeros() as usize] += 1;
    }

    fn merge(tallies: &[ReadTally]) -> ReadTally {
        tallies.iter().fold(ReadTally::default(), |mut acc, t| {
            acc.queries += t.queries;
            acc.total_ns += t.total_ns;
            acc.max_ns = acc.max_ns.max(t.max_ns);
            for (a, b) in acc.buckets.iter_mut().zip(t.buckets) {
                *a += b;
            }
            acc
        })
    }

    fn mean_us(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.queries as f64 / 1e3
        }
    }

    /// Upper edge of the histogram bucket containing the given quantile,
    /// microseconds.
    fn quantile_us(&self, q: f64) -> f64 {
        let target = (self.queries as f64 * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target && count > 0 {
                return 2f64.powi(i as i32 + 1) / 1e3;
            }
        }
        self.max_ns as f64 / 1e3
    }
}

/// Shared parameters of one benchmark phase.
#[derive(Clone, Copy)]
struct Scenario {
    d: usize,
    k: usize,
    r: usize,
    eps: f64,
    max_m: usize,
    readers: usize,
    /// Per-reader inter-query sleep (zero = spin flat out).
    pace: Duration,
    window: Duration,
}

impl Scenario {
    fn builder(&self) -> fdrms::FdRmsBuilder {
        FdRms::builder(self.d)
            .k(self.k)
            .r(self.r)
            .epsilon(self.eps)
            .max_utilities(self.max_m)
            .seed(7)
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            queue_capacity: 4_096,
            max_batch: 1_024,
            ..ServeConfig::default()
        }
    }
}

struct PhaseOutcome {
    ops_applied: u64,
    reads: ReadTally,
    secs: f64,
    /// Monte-Carlo max-regret-ratio of the final published solution
    /// against the final live database — the "equal result quality"
    /// check across disciplines.
    mrr: f64,
    detail: String,
}

fn report(name: &str, o: &PhaseOutcome) {
    println!(
        "{name:<9}  {:>9.0}   {:>12.0}   {:>12.2}   {:>10.2}   {:>10.2}   {:>7.4}   {}",
        o.ops_applied as f64 / o.secs,
        o.reads.queries as f64 / o.secs,
        o.reads.mean_us(),
        o.reads.quantile_us(0.99),
        o.reads.quantile_us(0.999),
        o.mrr,
        o.detail
    );
}

/// The same phase row, as a JSON fragment for `--json`.
fn phase_json(name: &str, o: &PhaseOutcome) -> String {
    JsonObject::new()
        .str("phase", name)
        .int("ops_applied", o.ops_applied)
        .num("writes_per_s", o.ops_applied as f64 / o.secs)
        .num("reads_per_s", o.reads.queries as f64 / o.secs)
        .num("read_mean_us", o.reads.mean_us())
        .num("read_p50_us", o.reads.quantile_us(0.50))
        .num("read_p99_us", o.reads.quantile_us(0.99))
        .num("read_p999_us", o.reads.quantile_us(0.999))
        .num("mrr", o.mrr)
        .finish()
}

/// In-process service discipline for any shard count: the single
/// applier and the id-partitioned shard group run the identical harness —
/// one writer per shard (each confined to its own id residue class),
/// readers asserting pointwise-monotone epoch vectors.
fn run_service(
    initial: &[Point],
    sc: Scenario,
    service: RmsService,
    est: &RegretEstimator,
) -> PhaseOutcome {
    let shards = service.shards();
    let stop = Arc::new(AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..sc.readers)
        .map(|_| {
            let handle = service.handle();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut tally = ReadTally::default();
                let mut last_epochs: Vec<u64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    let snap = handle.snapshot();
                    tally.record(t.elapsed());
                    if !last_epochs.is_empty() {
                        assert!(
                            snap.epochs.iter().zip(&last_epochs).all(|(n, l)| n >= l),
                            "epochs regressed"
                        );
                    }
                    last_epochs.clone_from(&snap.epochs);
                    if !sc.pace.is_zero() {
                        std::thread::sleep(sc.pace);
                    }
                }
                tally
            })
        })
        .collect();

    let streams: Vec<OpStream> = (0..shards)
        .map(|w| OpStream::partition(initial, sc.d, 99 + w as u64, w as u64, shards as u64))
        .collect();
    let start = Instant::now();
    let writer_handles: Vec<_> = streams
        .into_iter()
        .map(|mut stream| {
            let handle = service.handle();
            let window = sc.window;
            std::thread::spawn(move || {
                let mut submitted = 0u64;
                while start.elapsed() < window {
                    handle.submit(stream.next_op()).expect("service alive");
                    submitted += 1;
                }
                submitted
            })
        })
        .collect();
    let submitted: u64 = writer_handles
        .into_iter()
        .map(|h| h.join().expect("writer thread"))
        .sum();
    let handle = service.handle();
    let fds = service.shutdown();
    let secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let tallies: Vec<ReadTally> = reader_handles
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .collect();
    let snap = handle.snapshot();
    assert_eq!(snap.stats.ops_rejected, 0);
    assert_eq!(snap.stats.ops_applied, submitted);
    let live: Vec<Point> = fds.iter().flat_map(FdRms::live_points).collect();
    let mrr = est.mrr(&live, &snap.result, sc.k);
    PhaseOutcome {
        ops_applied: snap.stats.ops_applied,
        reads: ReadTally::merge(&tallies),
        secs,
        mrr,
        detail: format!(
            "shards={shards} epochs={:?} max_coalesced={} avg_apply_ms={:.3}",
            snap.epochs,
            snap.stats.max_coalesced,
            snap.stats.avg_apply_ms()
        ),
    }
}

/// Blocking discipline: one engine behind a mutex, per-op writer, readers
/// locking for every query.
fn run_blocking(initial: &[Point], sc: Scenario, est: &RegretEstimator) -> PhaseOutcome {
    let fd = sc
        .builder()
        .build(initial.to_vec())
        .expect("valid bench configuration");
    let fd = Arc::new(Mutex::new(fd));
    let stop = Arc::new(AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..sc.readers)
        .map(|_| {
            let fd = Arc::clone(&fd);
            let stop = Arc::clone(&stop);
            let pace = sc.pace;
            std::thread::spawn(move || {
                let mut tally = ReadTally::default();
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    let q = recover_poisoned(fd.lock()).result();
                    tally.record(t.elapsed());
                    std::hint::black_box(q.len());
                    if !pace.is_zero() {
                        std::thread::sleep(pace);
                    }
                }
                tally
            })
        })
        .collect();

    let mut stream = OpStream::new(initial, sc.d, 99);
    let mut applied = 0u64;
    let start = Instant::now();
    while start.elapsed() < sc.window {
        let op = stream.next_op();
        let mut guard = recover_poisoned(fd.lock());
        match op {
            Op::Insert(p) => guard.insert(p).expect("fresh id"),
            Op::Delete(id) => guard.delete(id).expect("live id"),
            Op::Update(p) => guard.update(p).expect("live id"),
        }
        applied += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let tallies: Vec<ReadTally> = reader_handles
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .collect();
    let mrr = {
        let guard = recover_poisoned(fd.lock());
        est.mrr(&guard.live_points(), &guard.result(), sc.k)
    };
    PhaseOutcome {
        ops_applied: applied,
        reads: ReadTally::merge(&tallies),
        secs,
        mrr,
        detail: String::new(),
    }
}

/// Wire discipline: the same churn through `RmsServer` on loopback,
/// driven end-to-end by the typed `rms-client` — pipelined `BATCH`
/// writes, `QUERY` round-trip readers, and one `SUBSCRIBE` stream whose
/// reconstructed solution is checked against the final `QUERY`.
fn run_tcp(
    initial: &[Point],
    sc: Scenario,
    wire_batch: usize,
    est: &RegretEstimator,
) -> PhaseOutcome {
    let service = RmsService::start(sc.builder(), initial.to_vec(), sc.serve_config())
        .expect("valid bench configuration");
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let server = std::thread::spawn(move || server.run().expect("server run"));

    // The subscriber applies every pushed delta until the server closes
    // the stream at shutdown.
    let subscriber = std::thread::spawn(move || {
        let client = RmsClient::connect(addr).expect("subscriber connect");
        let mut sub = client.subscribe(1).expect("subscribe");
        let mut deltas = 0u64;
        while let Some(_delta) = sub.next_delta().expect("delta stream") {
            deltas += 1;
        }
        (deltas, sub.ids())
    });

    let stop = Arc::new(AtomicBool::new(false));
    let reader_handles: Vec<_> = (0..sc.readers)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let pace = sc.pace;
            std::thread::spawn(move || {
                let mut client = RmsClient::connect(addr).expect("reader connect");
                let mut tally = ReadTally::default();
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    let q = client.query().expect("query");
                    tally.record(t.elapsed());
                    assert!(q.epochs[0] >= last_epoch, "epochs regressed over the wire");
                    last_epoch = q.epochs[0];
                    if !pace.is_zero() {
                        std::thread::sleep(pace);
                    }
                }
                tally
            })
        })
        .collect();

    let mut writer = RmsClient::connect(addr).expect("writer connect");
    assert_eq!(writer.hello().version, 2, "server must negotiate v2");
    let mut stream = OpStream::new(initial, sc.d, 99);
    let mut submitted = 0u64;
    let start = Instant::now();
    while start.elapsed() < sc.window {
        let ops: Vec<ClientOp> = (0..wire_batch).map(|_| stream.next_client_op()).collect();
        let acked = writer.submit_batch(&ops).expect("batch ack");
        assert_eq!(acked, ops.len());
        submitted += acked as u64;
    }
    let ingest_secs = start.elapsed().as_secs_f64();

    // Quiesce: all acknowledged ops visible before the final QUERY. The
    // deadline turns a lost/rejected op into a diagnostic instead of a
    // silent hang of the CI smoke run.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = writer.stats().expect("stats");
        if stats.ops_applied() == Some(submitted) {
            assert_eq!(stats.ops_rejected(), Some(0));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "submitted {submitted} ops but only {:?} applied ({:?} rejected) after 60s",
            stats.ops_applied(),
            stats.ops_rejected()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let tallies: Vec<ReadTally> = reader_handles
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .collect();
    let final_q = writer.query().expect("final query");
    writer.shutdown().expect("shutdown ack");
    let fds = server.join().expect("server thread");
    let (deltas, sub_ids) = subscriber.join().expect("subscriber thread");
    assert_eq!(
        sub_ids, final_q.ids,
        "subscriber delta replay diverged from the final QUERY"
    );
    let [fd] = fds.as_slice() else {
        panic!("a one-shard service returns one engine");
    };
    let mrr = est.mrr(&fd.live_points(), &fd.result(), sc.k);
    PhaseOutcome {
        ops_applied: submitted,
        reads: ReadTally::merge(&tallies),
        secs: ingest_secs,
        mrr,
        detail: format!("wire_batch={wire_batch} deltas={deltas} (replay == final QUERY)"),
    }
}

/// The fanout phase's measurements. `delivery` is the probe
/// subscription's submit→delta round trip, which rides the same
/// encode-once publish as the swarm.
struct FanoutOutcome {
    subscribers: usize,
    filtered: usize,
    publishes: u64,
    unfiltered_encodes: u64,
    filtered_encodes: u64,
    delivered_lines: u64,
    delivery: ReadTally,
}

/// Pulls one counter series out of Prometheus exposition text: the
/// first sample line starting with `name` whose label set contains
/// `label`.
fn metric_value(text: &str, name: &str, label: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.contains(label))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

/// The churn stream's insert ids start at 10 000 000, so this bound
/// puts the initial database inside the filter and fresh inserts
/// outside it — filtered subscribers see real slicing, not a no-op.
const FANOUT_FILTER_HI: u64 = 9_999_999;

/// `--fanout-child` mode: the subscriber swarm, run as a separate
/// process so the parent's server sockets and the swarm's client
/// sockets each stay under their own per-process fd limit. Connects
/// `--subs` subscribers (the first `--filtered` of them with a
/// server-side `ids=0..FILTER_HI` filter), prints `READY`, then drains
/// every pushed line through one `rms_net::Poller` until the server
/// closes the streams, and reports `DELIVERED <lines>`.
fn fanout_child() {
    rms_net::raise_nofile_limit(1 << 20).expect("raise child fd limit");
    let addr: String = flag("--addr", String::new());
    let subs: usize = flag("--subs", 0usize);
    let filtered: usize = flag("--filtered", 0usize);
    let filter_hi: u64 = flag("--filter-hi", FANOUT_FILTER_HI);

    let mut socks: Vec<TcpStream> = Vec::with_capacity(subs);
    for i in 0..subs {
        let stream = TcpStream::connect(&addr).expect("fanout subscriber connect");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.get_mut().write_all(b"HELLO v2\n").expect("hello");
        reader.read_line(&mut line).expect("hello ack");
        assert!(line.starts_with("OK v2"), "unexpected HELLO ack: {line}");
        line.clear();
        let request = if i < filtered {
            format!("SUBSCRIBE every=1 ids=0..{filter_hi}\n")
        } else {
            "SUBSCRIBE every=1\n".to_owned()
        };
        reader
            .get_mut()
            .write_all(request.as_bytes())
            .expect("subscribe");
        reader.read_line(&mut line).expect("subscribe ack");
        assert!(
            line.starts_with("OK subscribed"),
            "unexpected SUBSCRIBE ack: {line}"
        );
        // Nothing else arrives until the parent sees READY and starts
        // publishing, so unwrapping the (drained) BufReader loses no
        // buffered bytes.
        let stream = reader.into_inner();
        stream
            .set_nonblocking(true)
            .expect("nonblocking subscriber");
        socks.push(stream);
    }
    // Rust's stdout is line-buffered even into a pipe, so the parent
    // sees this immediately.
    println!("READY");

    let mut poller = rms_net::Poller::new().expect("child poller");
    for (i, s) in socks.iter().enumerate() {
        poller
            .register(s.as_raw_fd(), rms_net::Token(i), rms_net::Interest::READ)
            .expect("register subscriber");
    }
    let mut events: Vec<rms_net::Event> = Vec::new();
    let mut closed = vec![false; socks.len()];
    let mut open = socks.len();
    let mut lines = 0u64;
    let mut buf = [0u8; 16 * 1024];
    while open > 0 {
        poller.wait(&mut events, None).expect("child poll");
        for ev in &events {
            let i = ev.token.0;
            if closed[i] {
                continue;
            }
            loop {
                match socks[i].read(&mut buf) {
                    Ok(0) => {
                        closed[i] = true;
                        open -= 1;
                        let _ = poller.deregister(socks[i].as_raw_fd());
                        break;
                    }
                    Ok(n) => lines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        closed[i] = true;
                        open -= 1;
                        let _ = poller.deregister(socks[i].as_raw_fd());
                        break;
                    }
                }
            }
        }
    }
    println!("DELIVERED {lines}");
}

/// Fanout discipline: see the module docs. Asserts the encode-once
/// contract from the server's own metrics and that every subscriber
/// received every publish, so the phase doubles as the ≥N-subscriber
/// acceptance check.
fn run_fanout(initial: &[Point], sc: Scenario, subs: usize, publishes: u64) -> FanoutOutcome {
    rms_net::raise_nofile_limit(1 << 20).expect("raise fd limit");
    let service = RmsService::start(sc.builder(), initial.to_vec(), sc.serve_config())
        .expect("valid bench configuration");
    let server = RmsServer::bind("127.0.0.1:0", service).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let server = std::thread::spawn(move || server.run().expect("server run"));

    let filtered = subs / 2;
    let mut child = Command::new(std::env::current_exe().expect("current exe"))
        .arg("--fanout-child")
        .args(["--addr", &addr.to_string()])
        .args(["--subs", &subs.to_string()])
        .args(["--filtered", &filtered.to_string()])
        .args(["--filter-hi", &FANOUT_FILTER_HI.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fanout child");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    child_out.read_line(&mut line).expect("child READY");
    assert_eq!(line.trim(), "READY", "fanout child failed to subscribe");

    let mut probe = RmsClient::connect(addr)
        .expect("probe connect")
        .subscribe(1)
        .expect("probe subscribe");
    let mut writer = RmsClient::connect(addr).expect("writer connect");
    assert_eq!(writer.hello().version, 2, "server must negotiate v2");
    let mut stream = OpStream::new(initial, sc.d, 99);
    let mut delivery = ReadTally::default();
    for _ in 0..publishes {
        let op = stream.next_client_op();
        let t = Instant::now();
        writer.submit(&op).expect("pulse op");
        probe
            .next_delta()
            .expect("probe delta")
            .expect("stream open before shutdown");
        delivery.record(t.elapsed());
    }

    // The encode-once pin, from the server's own counters: one
    // unfiltered encode per publish no matter how many subscribers,
    // one filtered encode per publish for the swarm's single distinct
    // filter. With KRMS_METRICS_DISABLED=1 the registry's counters are
    // no-ops, so the pin can only be asserted when they're live.
    let metrics_text = writer.metrics().expect("metrics");
    let unfiltered_encodes = metric_value(
        &metrics_text,
        "rms_net_delta_encodes_total",
        "kind=\"unfiltered\"",
    );
    let filtered_encodes = metric_value(
        &metrics_text,
        "rms_net_delta_encodes_total",
        "kind=\"filtered\"",
    );
    if std::env::var_os("KRMS_METRICS_DISABLED").is_none() {
        assert_eq!(
            unfiltered_encodes, publishes,
            "encode-once violated: {unfiltered_encodes} unfiltered encodes over {publishes} \
             publishes"
        );
        if filtered > 0 {
            assert_eq!(
                filtered_encodes, publishes,
                "filter cache missed: {filtered_encodes} filtered encodes over {publishes} \
                 publishes of one distinct filter"
            );
        }
    }

    writer.shutdown().expect("shutdown ack");
    // The service's graceful drain can publish trailing deltas after the
    // pulse loop's last submit (a final rebuild epoch, for instance). The
    // probe rides the same stream as the swarm, so draining it to EOF
    // gives the exact total publish count every subscriber saw.
    let mut total_publishes = publishes;
    while probe.next_delta().expect("probe drain").is_some() {
        total_publishes += 1;
    }
    server.join().expect("server thread");
    line.clear();
    child_out.read_line(&mut line).expect("child DELIVERED");
    let delivered_lines: u64 = line
        .trim()
        .strip_prefix("DELIVERED ")
        .expect("child report")
        .parse()
        .expect("child line count");
    child.wait().expect("child exit");
    assert_eq!(
        delivered_lines,
        subs as u64 * total_publishes,
        "delta lines lost in fanout ({total_publishes} total publishes)"
    );
    FanoutOutcome {
        subscribers: subs,
        filtered,
        publishes,
        unfiltered_encodes,
        filtered_encodes,
        delivered_lines,
        delivery,
    }
}

fn report_fanout(o: &FanoutOutcome) {
    println!(
        "\nfanout     subs={} ({} filtered)   publishes={}   encodes/publish: \
         {:.2} unfiltered + {:.2} filtered   delivery p50={:.0}us p99={:.0}us   \
         delivered_lines={}",
        o.subscribers,
        o.filtered,
        o.publishes,
        o.unfiltered_encodes as f64 / o.publishes.max(1) as f64,
        o.filtered_encodes as f64 / o.publishes.max(1) as f64,
        o.delivery.quantile_us(0.50),
        o.delivery.quantile_us(0.99),
        o.delivered_lines,
    );
}

/// The fanout row for `--json`.
fn fanout_json(o: &FanoutOutcome) -> String {
    JsonObject::new()
        .str("phase", "fanout")
        .int("subscribers", o.subscribers as u64)
        .int("filtered_subscribers", o.filtered as u64)
        .int("publishes", o.publishes)
        .int("unfiltered_encodes", o.unfiltered_encodes)
        .int("filtered_encodes", o.filtered_encodes)
        .num(
            "encodes_per_publish",
            o.unfiltered_encodes as f64 / o.publishes.max(1) as f64,
        )
        .int("delivered_lines", o.delivered_lines)
        .num("delivery_p50_us", o.delivery.quantile_us(0.50))
        .num("delivery_p99_us", o.delivery.quantile_us(0.99))
        .num("delivery_p999_us", o.delivery.quantile_us(0.999))
        .finish()
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--fanout-child") {
        fanout_child();
        return;
    }
    let smoke = std::env::var_os("KRMS_BENCH_SMOKE").is_some();
    let (n_def, max_m_def, secs_def, readers_def, shards_def) = if smoke {
        (400usize, 256usize, 0.25f64, 2usize, 2usize)
    } else {
        (5_000, 1 << 12, 2.0, 4, 4)
    };
    let n: usize = flag("--n", n_def);
    let d: usize = flag("--d", 6);
    let k: usize = flag("--k", 3);
    let r: usize = flag("--r", 50);
    let eps: f64 = flag("--eps", 0.05);
    let max_m: usize = flag("--max-m", max_m_def);
    let readers: usize = flag("--readers", readers_def);
    let secs: f64 = flag("--secs", secs_def);
    let shards: usize = flag("--shards", shards_def);
    let wire_batch: usize = flag("--wire-batch", 128usize);
    let (fanout_subs_def, fanout_pubs_def) = if smoke {
        (200usize, 50u64)
    } else {
        (10_000, 200)
    };
    let fanout_subs: usize = flag("--fanout-subs", fanout_subs_def);
    let fanout_pubs: u64 = flag("--fanout-pubs", fanout_pubs_def);
    // Per-reader pacing: by default each reader issues ~2 000 queries/s
    // (a steady serving load) so reader CPU pressure does not drown the
    // applier on small hosts; `--read-qps 0` makes readers spin flat out
    // to measure raw snapshot throughput instead.
    let read_qps: u64 = flag("--read-qps", 2_000u64);
    let json_path: String = flag("--json", String::new());
    let pace = if read_qps == 0 {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(1.0 / read_qps as f64)
    };
    let window = Duration::from_secs_f64(secs);
    println!(
        "serve bench — n={n}, d={d}, k={k}, r={r}, eps={eps}, max_m={max_m}, \
         readers={readers}, read_qps={read_qps}/reader, window={secs}s{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rng = StdRng::seed_from_u64(42);
    let initial = generators::independent(&mut rng, n, d);
    let est = RegretEstimator::new(d, if smoke { 500 } else { 2_000 }.max(d), 0xE7A1);

    println!(
        "\ndiscipline  writes_per_s   reads_per_s   read_mean_us   read_p99_us   read_p999_us   mrr_{k}   notes"
    );
    let scenario = Scenario {
        d,
        k,
        r,
        eps,
        max_m,
        readers,
        pace,
        window,
    };
    let mut phases = JsonArray::new();
    let blocking = run_blocking(&initial, scenario, &est);
    report("blocking", &blocking);
    phases.push(&phase_json("blocking", &blocking));
    let service = run_service(
        &initial,
        scenario,
        RmsService::start(scenario.builder(), initial.clone(), scenario.serve_config())
            .expect("valid bench configuration"),
        &est,
    );
    report("service", &service);
    phases.push(&phase_json("service", &service));
    let sharded = (shards > 1).then(|| {
        let group = RmsService::start(
            scenario.builder(),
            initial.clone(),
            ServeConfig {
                shards,
                ..scenario.serve_config()
            },
        )
        .expect("valid bench configuration");
        let outcome = run_service(&initial, scenario, group, &est);
        report("sharded", &outcome);
        outcome
    });
    if let Some(sharded) = &sharded {
        phases.push(&phase_json("sharded", sharded));
    }
    if wire_batch > 0 {
        let tcp = run_tcp(&initial, scenario, wire_batch, &est);
        report("tcp", &tcp);
        phases.push(&phase_json("tcp", &tcp));
    }
    if fanout_subs > 0 {
        let fanout = run_fanout(&initial, scenario, fanout_subs, fanout_pubs);
        report_fanout(&fanout);
        phases.push(&fanout_json(&fanout));
    }

    if !json_path.is_empty() {
        let params = JsonObject::new()
            .int("n", n as u64)
            .int("d", d as u64)
            .int("k", k as u64)
            .int("r", r as u64)
            .num("eps", eps)
            .int("max_m", max_m as u64)
            .int("readers", readers as u64)
            .int("shards", shards as u64)
            .int("wire_batch", wire_batch as u64)
            .int("fanout_subs", fanout_subs as u64)
            .int("fanout_pubs", fanout_pubs)
            .int("read_qps", read_qps)
            .num("secs", secs)
            .raw("smoke", if smoke { "true" } else { "false" })
            .finish();
        let doc = JsonObject::new()
            .str("bench", "serve")
            .raw("params", &params)
            .raw("phases", &phases.finish())
            .finish();
        write_json(std::path::Path::new(&json_path), &doc);
    }

    if blocking.reads.queries > 0 && service.reads.queries > 0 {
        println!(
            "\nreader speedup: {:.1}x QPS, {:.0}x p99.9 latency; ingestion {:.2}x",
            (service.reads.queries as f64 / service.secs)
                / (blocking.reads.queries as f64 / blocking.secs),
            blocking.reads.quantile_us(0.999) / service.reads.quantile_us(0.999).max(1e-9),
            (service.ops_applied as f64 / service.secs)
                / (blocking.ops_applied as f64 / blocking.secs).max(1.0),
        );
    }
    if let Some(sharded) = sharded {
        println!(
            "sharded ingestion: {:.2}x the single applier ({:.0} vs {:.0} writes/s) \
             at mrr {:.4} vs {:.4}",
            (sharded.ops_applied as f64 / sharded.secs)
                / (service.ops_applied as f64 / service.secs).max(1.0),
            sharded.ops_applied as f64 / sharded.secs,
            service.ops_applied as f64 / service.secs,
            sharded.mrr,
            service.mrr,
        );
    }
}
