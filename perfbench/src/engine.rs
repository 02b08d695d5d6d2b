//! The engine path: ops go straight into `FdRms::apply_batch`, with no
//! service, queue or socket in between.

use crate::open_loop::{self, Target};
use crate::stats::{block_rates, Samples};
use crate::stream::{live_points, Churn, OpSource, Shape};
use crate::trace::Tracer;
use crate::{
    Gate, Params, Phases, RateSearch, StepOutcome, Workload, LOW_RATE, MRR_SEED, ROUNDS,
    SHAPE_SEED, SPLIT, THROUGHPUT_BLOCKS,
};
use fdrms::{BatchReport, FdRms, Op};
use rand::{rngs::StdRng, SeedableRng};
use rms_eval::RegretEstimator;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One `apply_batch` call as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct Apply {
    pub ops: usize,
    pub us: f64,
    pub report: BatchReport,
    pub closed: bool,
}

/// What an engine workload's run produced.
pub struct EngineRun {
    pub phases: Phases,
    /// Every `apply_batch` call of every round (traced runs only).
    pub all_applies: Vec<Apply>,
    /// The last round's calls, which `log` holds the ops of.
    pub applies: Vec<Apply>,
    /// Every op the last round applied, in order (kept only for traced
    /// runs, which replay them layer by layer).
    pub log: Vec<Op>,
    pub initial: Vec<rms_geom::Point>,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
}

/// The engine settings every workload shares.
pub fn builder(p: &Params) -> fdrms::FdRmsBuilder {
    FdRms::builder(p.d)
        .k(p.k)
        .r(p.r)
        .epsilon(p.eps)
        .max_utilities(p.max_m)
        .seed(p.engine_seed)
}

/// One timed build from the initial tuples.
pub fn build(p: &Params, initial: &[rms_geom::Point], i: u64, tr: &mut Tracer) -> (FdRms, f64) {
    let pts = initial.to_vec();
    let span = tr.begin("fdrms.build", i, pts.len() as u64);
    let t = Instant::now();
    let fd = builder(p).build(pts).expect("valid engine configuration");
    let secs = t.elapsed().as_secs_f64();
    tr.end(span);
    (fd, secs)
}

struct Engine<'a> {
    fd: FdRms,
    stream: Churn,
    p: &'a Params,
    /// The calls (and in `log` the ops) of the current round; kept only
    /// in traced runs, so an untraced run's bookkeeping does not grow
    /// with the engine's speed and its peak RSS stays the program's own.
    applies: Vec<Apply>,
    log: Vec<Op>,
    batch_id: u64,
    attempted: u64,
    failed: u64,
}

impl Engine<'_> {
    /// One `apply_batch` of the stream's next `n` ops; its time in µs, or
    /// `None` when it failed.
    fn apply(&mut self, n: usize, closed: bool, tr: &mut Tracer) -> Option<f64> {
        let gen = tr.begin("bench.gen_ops", self.batch_id, n as u64);
        let ops: Vec<Op> = (0..n).map(|_| self.stream.next_op()).collect();
        tr.end(gen);
        if self.p.trace {
            self.log.extend(ops.iter().cloned());
        }
        self.attempted += n as u64;
        let span = tr.begin("fdrms.apply_batch", self.batch_id, n as u64);
        let t = Instant::now();
        let res = self.fd.apply_batch(ops);
        let us = t.elapsed().as_secs_f64() * 1e6;
        tr.end(span);
        self.batch_id += 1;
        match res {
            Ok(report) => {
                if self.p.trace {
                    self.applies.push(Apply {
                        ops: n,
                        us,
                        report,
                        closed,
                    });
                }
                Some(us)
            }
            Err(e) => {
                eprintln!("apply_batch failed: {e}");
                self.failed += n as u64;
                None
            }
        }
    }

    fn query(&mut self, tr: &mut Tracer) {
        let span = tr.begin("fdrms.result_ids", self.batch_id, 0);
        black_box(self.fd.result_ids());
        tr.end(span);
    }

    /// Closed loop for `dur` of timed work; `checkpoints` evenly spaced
    /// mrr probes run outside the timed region. Returns the throughput of
    /// `THROUGHPUT_BLOCKS` consecutive blocks of calls, the call times and
    /// the mrr values.
    fn closed_loop(
        &mut self,
        shape: Shape,
        dur: Duration,
        checkpoints: usize,
        est: &RegretEstimator,
        tr: &mut Tracer,
    ) -> (Vec<f64>, Samples, Samples) {
        let phase = tr.begin("phase.closed", 0, 0);
        let mut rng = StdRng::seed_from_u64(self.p.seed ^ SHAPE_SEED);
        let mut timed = Duration::ZERO;
        let mut calls = Vec::new();
        let mut apply_us = Samples::default();
        let mut mrr = Samples::default();
        let mut next_cp = 1;
        while timed < dur {
            let n = shape.next(&mut rng);
            let Some(us) = self.apply(n, true, tr) else {
                break;
            };
            timed += Duration::from_secs_f64(us / 1e6);
            calls.push((n as f64, us));
            apply_us.push(us);
            if next_cp <= checkpoints && timed >= dur.mul_f64(next_cp as f64 / checkpoints as f64) {
                let span = tr.begin("eval.mrr", next_cp as u64, 0);
                mrr.push(est.mrr(
                    &live_points(&self.stream.live()),
                    &self.fd.result(),
                    self.p.k,
                ));
                tr.end(span);
                next_cp += 1;
            }
        }
        tr.end(phase);
        (block_rates(&calls, THROUGHPUT_BLOCKS), apply_us, mrr)
    }

    /// One open-loop step at `rate` ops/s for `dur` (see `open_loop`).
    fn open_loop(
        &mut self,
        rate: f64,
        dur: Duration,
        name: &'static str,
        tr: &mut Tracer,
    ) -> StepOutcome {
        let phase = tr.begin(name, 0, 0);
        let p = self.p;
        let out = open_loop::run(&mut OpenTarget { e: self, tr }, p, rate, dur);
        tr.end(phase);
        out
    }
}

/// The engine as an open loop's target: a frame is one `apply_batch`,
/// acked and visible when it returns; a query is one `result_ids()`. The
/// loop spins before due times, since nothing else needs the core.
struct OpenTarget<'e, 'a, 't> {
    e: &'e mut Engine<'a>,
    tr: &'t mut Tracer,
}

impl Target for OpenTarget<'_, '_, '_> {
    const SPIN: bool = true;

    fn submit(&mut self, n: usize) -> Option<Instant> {
        self.e.apply(n, false, self.tr).map(|_| Instant::now())
    }

    fn query(&mut self) {
        self.e.query(self.tr);
    }
}

/// `w.setup_reps` timed builds on `initial` (each a fresh hash order),
/// their times pushed to `times`; all but the last are dropped at once.
fn setups(
    w: &Workload,
    p: &Params,
    initial: &[rms_geom::Point],
    round: u64,
    tr: &mut Tracer,
    times: &mut Vec<f64>,
) -> FdRms {
    let mut last = None;
    for rep in 0..w.setup_reps {
        drop(last.take());
        let (fd, t) = build(p, initial, round * w.setup_reps as u64 + rep as u64, tr);
        times.push(t);
        last = Some(fd);
    }
    last.expect("at least one set-up per round")
}

/// Runs an engine workload in `ROUNDS` rounds. Each round builds a fresh
/// engine `w.setup_reps` times (each draws a fresh hash order) on the
/// live set the stream has reached, then runs a closed-loop slice, a
/// slice of each fixed-rate open loop and one rate-search step. Spreading
/// every phase over the whole run keeps a slow stretch of the host from
/// landing on one metric, and the mrr checkpoints see as many database
/// states as there are checkpoints. The gates run after every round.
pub fn run(w: &Workload, p: &Params, points: &[rms_geom::Point], tr: &mut Tracer) -> EngineRun {
    let est = RegretEstimator::new(p.d, w.mrr_dirs, MRR_SEED);
    let slice = |i: usize| p.seconds.mul_f64(SPLIT[i] / ROUNDS as f64);
    let mut ph = Phases::default();
    let mut search = RateSearch::new(w.high);
    let (stream, initial) = Churn::new(points.to_vec(), p.seed);
    let fd = setups(w, p, &initial, 0, tr, &mut ph.setup_s);
    let mut e = Engine {
        fd,
        stream,
        p,
        applies: Vec::new(),
        log: Vec::new(),
        batch_id: 0,
        attempted: 0,
        failed: 0,
    };
    let mut initial = initial;
    let mut all_applies = Vec::new();
    let mut gates = Vec::new();
    for round in 0..ROUNDS {
        let span = tr.begin("bench.round", round as u64, 0);
        ph.reference_ms.push(crate::host::reference_loop_ms());
        if round > 0 {
            initial = live_points(&e.stream.live());
            e.fd = setups(w, p, &initial, round as u64, tr, &mut ph.setup_s);
            all_applies.append(&mut e.applies);
            e.log.clear();
        }
        let (ops_per_s, us, m) = e.closed_loop(w.shape, slice(0), w.checkpoints / ROUNDS, &est, tr);
        ph.ops_per_s.extend(ops_per_s);
        ph.apply_us.extend(&us);
        ph.round_apply_p50.push(us.median());
        ph.mrr.extend(&m);
        ph.low
            .absorb(e.open_loop(LOW_RATE, slice(1), "phase.low", tr));
        ph.high
            .absorb(e.open_loop(w.high, slice(2), "phase.high", tr));
        let step = e.open_loop(search.rate(), slice(3), "phase.search", tr);
        search.record(step.passes());
        gates.extend(check(&e, p, round + 1 == ROUNDS));
        tr.end(span);
    }
    ph.max_rate = search.result();
    ph.search = search.steps;
    all_applies.extend(e.applies.iter().cloned());
    let (attempted, failed) = (e.attempted, e.failed);
    gates.push(Gate::new(
        "no failed ops",
        failed == 0,
        format!("failed={failed}"),
    ));
    EngineRun {
        phases: ph,
        all_applies,
        applies: e.applies,
        log: e.log,
        initial,
        gates,
        attempted,
        failed,
    }
}

/// The engine gates: its live set is the stream's, `|Q| <= r`, `Q` holds
/// only live ids, and (last round, or every traced run)
/// `check_invariants()` against brute force. Skipped above 20 000 live
/// tuples in untraced runs, where it takes about a minute.
fn check(e: &Engine, p: &Params, last: bool) -> Vec<Gate> {
    let mut gates = Vec::new();
    let live = e.stream.live();
    let engine_live: std::collections::BTreeMap<_, _> =
        e.fd.live_points()
            .into_iter()
            .map(|q| (q.id(), q.coords().to_vec()))
            .collect();
    gates.push(Gate::new(
        "engine live set equals the stream's",
        engine_live == live,
        String::new(),
    ));
    let q = e.fd.result_ids();
    gates.push(Gate::new(
        "|Q| <= r",
        q.len() <= p.r,
        format!("|Q|={}", q.len()),
    ));
    gates.push(Gate::new(
        "Q ⊆ live ids",
        q.iter().all(|id| live.contains_key(id)),
        String::new(),
    ));
    if last && (p.trace || live.len() <= 20_000) {
        let t = Instant::now();
        let inv = e.fd.check_invariants();
        gates.push(Gate::new(
            "check_invariants",
            inv.is_ok(),
            format!(
                "{:.1}s{}",
                t.elapsed().as_secs_f64(),
                inv.err().map_or(String::new(), |e| format!(": {e}"))
            ),
        ));
    }
    gates
}

/// Replays `log` in batches of `sizes` into a fresh engine (the fdrms
/// layer replay of a workload whose end-to-end path runs elsewhere).
pub fn replay(
    p: &Params,
    initial: &[rms_geom::Point],
    log: &[Op],
    sizes: &[usize],
    tr: &mut Tracer,
) -> (Vec<Apply>, f64) {
    let (mut fd, build_s) = build(p, initial, 0, tr);
    let mut applies = Vec::new();
    let mut at = 0;
    for (i, &n) in sizes.iter().enumerate() {
        let ops = log[at..at + n].to_vec();
        at += n;
        let span = tr.begin("fdrms.apply_batch", i as u64, n as u64);
        let t = Instant::now();
        let report = fd
            .apply_batch(ops)
            .expect("replayed ops were accepted once");
        let us = t.elapsed().as_secs_f64() * 1e6;
        tr.end(span);
        applies.push(Apply {
            ops: n,
            us,
            report,
            closed: true,
        });
    }
    (applies, build_s)
}
