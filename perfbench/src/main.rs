//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-churn|engine-bulk|wire-open --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`. Each workload runs the same
//! phases against its own path — the engine alone (`engine-*`) or the
//! whole serving stack over loopback (`wire-open`): repeated set-up, a
//! closed loop with mrr checkpoints, open loops at a low and a high fixed
//! rate, and a stepped search for the highest rate that meets the
//! workload's latency limit. Correctness gates run last. The final
//! stdout line is one JSON object: end-to-end metrics with `--trace 0`,
//! per-layer metrics (from spans kept in memory and written out at the
//! end) with `--trace 1`. See `perfbench/README.md`.

mod engine;
mod host;
mod layers;
mod open_loop;
mod stats;
mod stream;
mod trace;
mod wire;

use rand::{rngs::StdRng, SeedableRng};
use stats::{median, Samples};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use stream::Shape;
use trace::Tracer;

/// Fixed settings shared by every workload, plus the run's arguments.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub d: usize,
    pub k: usize,
    pub r: usize,
    pub eps: f64,
    pub max_m: usize,
    pub engine_seed: u64,
    /// Largest batch an open loop hands the engine at once (the serving
    /// applier's `max_batch`).
    pub max_batch: usize,
    /// `QUERY`s per second during open loops.
    pub query_rate: f64,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Engine { n: usize, anticorrelated: bool },
    Wire { n: usize },
}

/// One workload's inputs and fixed rates.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Closed-loop batch sizes on the engine path (and in the serving
    /// replay of an engine workload's traced run).
    pub shape: Shape,
    /// The high open-loop rate, ops/s, and the rate search's start.
    pub high: f64,
    pub checkpoints: usize,
    pub mrr_dirs: usize,
    /// Timed set-ups per round; `setup_s` is their median over the run.
    pub setup_reps: usize,
}

/// Shares of `--seconds` for the closed loop, the low and high open
/// loops, and the rate search. The gated metrics come from the first
/// two, so they get most of the time.
pub const SPLIT: [f64; 4] = [0.4, 0.25, 0.1, 0.25];
/// Rounds per run; each takes one slice of every phase and one
/// rate-search step.
pub const ROUNDS: usize = 8;
/// Blocks each round's closed loop is cut into for `ops_per_s`, the
/// median block throughput: a 30–130 ms stall then sets one block's rate
/// instead of dragging a whole round's.
pub const THROUGHPUT_BLOCKS: usize = 4;

/// The end-to-end metrics `BENCHMARK.json` gates. The others are printed
/// too, marked "not gated": on this program and host their spread across
/// seeds is wider than any bound a gate could hold (see
/// `perfbench/README.md`).
pub const END_TO_END: [&str; 3] = ["setup_s", "peak_rss_mb", "mrr_mean"];

/// The low open-loop rate, ops/s.
pub const LOW_RATE: f64 = 1_000.0;
/// The rate search's limit on a step's visible p99.
pub const LIMIT_MS: f64 = 250.0;
/// Ops per `BATCH` frame in wire-open's closed loop.
pub const WIRE_FRAME: usize = 128;

/// Seed of the fixed mrr test directions (the same on every run).
pub const MRR_SEED: u64 = 0x005E_EDD1;
/// Mixed into `--seed` for the closed loop's batch sizes.
pub const SHAPE_SEED: u64 = 0x000B_A7C5;

/// Ceiling on `mrr_mean`: far above every workload's value, so crossing
/// it means the maintained set broke, not that it drifted.
const MRR_CEILING: f64 = 0.2;

fn workload(name: &str) -> Option<Workload> {
    let base = Workload {
        name: "",
        kind: Kind::Wire { n: 0 },
        shape: Shape::LogUniform(32),
        high: 0.0,
        checkpoints: 0,
        mrr_dirs: 1_000,
        setup_reps: 3,
    };
    Some(match name {
        "engine-churn" => Workload {
            name: "engine-churn",
            kind: Kind::Engine {
                n: 10_000,
                anticorrelated: false,
            },
            high: 6_000.0,
            checkpoints: 32,
            ..base
        },
        "engine-bulk" => Workload {
            name: "engine-bulk",
            kind: Kind::Engine {
                n: 100_000,
                anticorrelated: true,
            },
            shape: Shape::Fixed(1_000),
            high: 8_000.0,
            checkpoints: 32,
            mrr_dirs: 150,
            setup_reps: 1,
        },
        "wire-open" => Workload {
            name: "wire-open",
            kind: Kind::Wire { n: 5_000 },
            high: 3_000.0,
            checkpoints: 24,
            setup_reps: 2,
            ..base
        },
        _ => return None,
    })
}

/// A correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Gate {
    pub fn new(name: &str, ok: bool, detail: String) -> Self {
        Self {
            name: name.to_owned(),
            ok,
            detail,
        }
    }
}

/// One open-loop step (or the serving replay's closed step).
#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    pub rate: f64,
    pub visible_ms: Samples,
    pub ack_ms: Samples,
    pub query_ms: Samples,
    /// How late the generator issued each op (ms after its due time).
    pub late_ms: Samples,
    pub backlog_grew: bool,
    /// Slices pooled into this step, and how many of them saw the
    /// backlog grow.
    pub slices: u32,
    pub grew_slices: u32,
    pub client_batch_us: Samples,
    pub client_query_us: Samples,
    /// Closed-loop steps only: throughput of each block of frames.
    pub block_rates: Vec<f64>,
    /// Serving-registry movement over the step (wire path only).
    pub registry: wire::Delta,
}

impl StepOutcome {
    pub fn new(rate: f64) -> Self {
        Self {
            rate,
            ..Self::default()
        }
    }

    /// Pools another slice of the same step into this one.
    pub fn absorb(&mut self, o: StepOutcome) {
        self.rate = o.rate;
        self.slices += 1;
        self.grew_slices += u32::from(o.backlog_grew);
        self.visible_ms.extend(&o.visible_ms);
        self.ack_ms.extend(&o.ack_ms);
        self.query_ms.extend(&o.query_ms);
        self.late_ms.extend(&o.late_ms);
        self.client_batch_us.extend(&o.client_batch_us);
        self.client_query_us.extend(&o.client_query_us);
        self.registry.add(&o.registry);
    }

    /// Within capacity: the backlog did not grow and visible p99 met
    /// the limit.
    pub fn passes(&self) -> bool {
        !self.backlog_grew && self.visible_ms.quantile(0.99) <= LIMIT_MS
    }
}

/// Everything the end-to-end metrics are read from, pooled over rounds.
#[derive(Default)]
pub struct Phases {
    pub setup_s: Vec<f64>,
    /// Closed-loop throughput of each block of each round.
    pub ops_per_s: Vec<f64>,
    pub apply_us: Samples,
    pub mrr: Samples,
    pub low: StepOutcome,
    pub high: StepOutcome,
    /// Rate-search steps: offered rate and whether it passed.
    pub search: Vec<(f64, bool)>,
    pub max_rate: f64,
    /// `host::reference_loop_ms` at the start of every round.
    pub reference_ms: Vec<f64>,
    /// Each round's closed-loop median call time.
    pub round_apply_p50: Vec<f64>,
}

/// Stepped search for the highest rate that passes, one step per round:
/// up by 25% from the start rate until a step fails (down by 25% while
/// none has passed), then geometric bisection of the bracket.
pub struct RateSearch {
    lo: Option<f64>,
    hi: Option<f64>,
    next: f64,
    /// Every step so far: rate and whether it passed.
    pub steps: Vec<(f64, bool)>,
}

impl RateSearch {
    pub fn new(start: f64) -> Self {
        Self {
            lo: None,
            hi: None,
            next: start,
            steps: Vec::new(),
        }
    }

    pub fn rate(&self) -> f64 {
        self.next
    }

    pub fn record(&mut self, passed: bool) {
        self.steps.push((self.next, passed));
        if passed {
            self.lo = Some(self.next);
        } else {
            self.hi = Some(self.next);
        }
        self.next = match (self.lo, self.hi) {
            (Some(l), None) => l * 1.25,
            (None, Some(h)) => h / 1.25,
            (Some(l), Some(h)) => (l * h).sqrt(),
            (None, None) => unreachable!("every step sets one bound"),
        };
    }

    /// The highest rate that passed (the lowest tried, if none did).
    pub fn result(&self) -> f64 {
        self.lo.unwrap_or_else(|| {
            eprintln!("warning: no rate passed; reporting the lowest rate tried");
            self.next * 1.25
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = workload(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

/// A metric as printed: name, value, unit, and how it was read.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

/// A timing percentile. The median is pooled; a tail percentile is the
/// median over blocks of at least 1 000 consecutive samples (each then
/// has at least ten samples beyond its p99).
fn timing(name: &'static str, s: &Samples, q: f64, unit: &'static str) -> Metric {
    let (value, blocks) = if q > 0.5 {
        s.block_quantile(q, 1_000, 5)
    } else {
        (s.quantile(q), 1)
    };
    Metric {
        name,
        value,
        unit,
        note: format!(
            "p{} of {} samples{}, {} beyond",
            q * 100.0,
            s.len(),
            if blocks > 1 {
                format!(", median over {blocks} blocks")
            } else {
                String::new()
            },
            s.beyond(q)
        ),
    }
}

fn end_to_end(ph: &Phases, rss: f64) -> Vec<Metric> {
    let plain = |name, value, unit, note: String| Metric {
        name,
        value,
        unit,
        note,
    };
    vec![
        plain(
            "setup_s",
            median(&ph.setup_s),
            "s",
            format!("median of {} set-ups", ph.setup_s.len()),
        ),
        plain("peak_rss_mb", rss, "MiB", "VmHWM of this process".into()),
        plain(
            "ops_per_s",
            median(&ph.ops_per_s),
            "ops/s",
            format!(
                "median over {} closed-loop blocks, checkpoints excluded",
                ph.ops_per_s.len()
            ),
        ),
        timing("apply_p50_us", &ph.apply_us, 0.5, "us"),
        timing("apply_p99_us", &ph.apply_us, 0.99, "us"),
        plain(
            "mrr_mean",
            ph.mrr.mean(),
            "ratio",
            format!("mean of {} checkpoints", ph.mrr.len()),
        ),
        timing("visible_p50_ms.low", &ph.low.visible_ms, 0.5, "ms"),
        timing("visible_p99_ms.low", &ph.low.visible_ms, 0.99, "ms"),
        timing("visible_p50_ms.high", &ph.high.visible_ms, 0.5, "ms"),
        timing("visible_p99_ms.high", &ph.high.visible_ms, 0.99, "ms"),
        timing("ack_p99_ms.high", &ph.high.ack_ms, 0.99, "ms"),
        timing("query_p50_ms.low", &ph.low.query_ms, 0.5, "ms"),
        timing("query_p99_ms.high", &ph.high.query_ms, 0.99, "ms"),
        plain(
            "max_rate_ops_s",
            ph.max_rate,
            "ops/s",
            format!(
                "limit visible p99 <= {} ms; steps {} (! = failed)",
                LIMIT_MS,
                ph.search
                    .iter()
                    .map(|&(rate, passed)| format!("{rate:.0}{}", if passed { "" } else { "!" }))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ),
    ]
}

/// Every per-layer metric a traced run reports: name, unit, and the
/// end-to-end metric and workload it should move (`BENCHMARK.json` and
/// `perfbench/README.md` carry the same table).
pub const LAYER_METRICS: [(&str, &str, &str); 32] = [
    ("fdrms.build_s", "s", "setup_s on engine-bulk >> others"),
    (
        "fdrms.apply_single_us",
        "us",
        "apply_p50_us, ops_per_s on engine-churn",
    ),
    (
        "fdrms.batch_fixed_us",
        "us",
        "ops_per_s on engine-churn; visible_p50_ms.low on wire-open",
    ),
    (
        "fdrms.batch_per_op_us",
        "us",
        "ops_per_s on engine-churn; visible_p50_ms.low on wire-open",
    ),
    (
        "fdrms.affected_per_op",
        "count",
        "ops_per_s on engine-churn, engine-bulk",
    ),
    (
        "fdrms.requery_ratio",
        "ratio",
        "ops_per_s on engine-churn, engine-bulk",
    ),
    (
        "fdrms.membership_changes_per_op",
        "count",
        "ops_per_s on engine-churn, engine-bulk",
    ),
    ("fdrms.m", "count", "mrr_mean on engine-*"),
    ("fdrms.result_size", "count", "mrr_mean on engine-*"),
    (
        "rms-setcover.stabilize_moves_per_batch",
        "count",
        "apply_p99_us on engine-bulk",
    ),
    (
        "rms-index.kd_update_us",
        "us",
        "ops_per_s on engine-churn, engine-bulk",
    ),
    (
        "rms-index.kd_topk_us",
        "us",
        "ops_per_s on engine-churn; apply_p99_us on engine-bulk",
    ),
    ("rms-index.cone_probe_us", "us", "ops_per_s on engine-*"),
    (
        "rms-index.cone_hits_per_tuple",
        "count",
        "ops_per_s on engine-*",
    ),
    (
        "rms-serve.apply_us_mean",
        "us",
        "visible_p99_ms.high, max_rate_ops_s on wire-open",
    ),
    (
        "rms-serve.apply_busy_frac",
        "ratio",
        "visible_p99_ms.high, max_rate_ops_s on wire-open",
    ),
    (
        "rms-serve.batch_ops_mean",
        "count",
        "visible_p99_ms.* on wire-open",
    ),
    (
        "rms-serve.publish_us_mean",
        "us",
        "visible_p50_ms.* on wire-open",
    ),
    (
        "rms-serve.epochs_per_s",
        "1/s",
        "visible_p50_ms.* on wire-open",
    ),
    (
        "rms-serve.wal_appends_per_op",
        "count",
        "ack_p99_ms.high on wire-open",
    ),
    (
        "rms-serve.wal_bytes_per_op",
        "B",
        "ack_p99_ms.high on wire-open",
    ),
    (
        "rms-net.batch_request_us_mean",
        "us",
        "ack_p99_ms.high on wire-open",
    ),
    (
        "rms-net.query_request_us_mean",
        "us",
        "query_p* on wire-open",
    ),
    ("rms-net.fanout_us_mean", "us", "visible_p* on wire-open"),
    (
        "rms-net.encodes_per_publish",
        "count",
        "visible_p* on wire-open",
    ),
    (
        "rms-net.delta_bytes_per_publish",
        "B",
        "visible_p* on wire-open",
    ),
    (
        "rms-net.wakeups_per_request",
        "count",
        "query_p99_ms.high on wire-open",
    ),
    (
        "rms-net.evicted_subscribers",
        "count",
        "failed ops on wire-open",
    ),
    (
        "rms-serve.queue_depth_p99",
        "count",
        "visible_p99_ms.high on wire-open",
    ),
    (
        "rms-client.batch_rtt_us",
        "us",
        "ack_p99_ms.high on wire-open",
    ),
    ("rms-client.query_rtt_us", "us", "query_p* on wire-open"),
    (
        "gen.late_p99_ms",
        "ms",
        "validity of every wire-open number",
    ),
];

/// How late the generator ran: p99 over the low and high open loops.
fn late_p99_ms(ph: &Phases) -> f64 {
    let mut late = ph.low.late_ms.clone();
    late.extend(&ph.high.late_ms);
    late.quantile(0.99)
}

/// Orders the traced run's values as `LAYER_METRICS`; a missing or
/// unexpected layer metric is a bug in this benchmark.
fn layer_metrics(values: &[layers::Layer]) -> Vec<Metric> {
    assert_eq!(
        values.len(),
        LAYER_METRICS.len(),
        "one value per layer metric"
    );
    LAYER_METRICS
        .iter()
        .map(|&(name, unit, moves)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("layer metric {name} was not measured"))
                .1;
            Metric {
                name,
                value,
                unit,
                note: format!("should move {moves}"),
            }
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload engine-churn|engine-bulk|wire-open --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let p = Params {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        d: 6,
        k: 3,
        r: 50,
        eps: 0.05,
        max_m: 4_096,
        engine_seed: 7,
        max_batch: 1_024,
        query_rate: 500.0,
    };
    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench workload={} seconds={} trace={}",
        w.name,
        args.seconds,
        u8::from(p.trace)
    );
    for (k, v) in host::fingerprint(p.seed) {
        let _ = writeln!(text, "host {k}={v}");
    }
    print!("{text}");

    let ticks = host::cpu_ticks();
    let origin = Instant::now();
    let mut tr = Tracer::new(p.trace, "gen1", origin);
    let mut data_rng = StdRng::seed_from_u64(p.seed);
    let (phases, gates, attempted, failed, layer_values) = match w.kind {
        Kind::Engine { n, anticorrelated } => {
            let points = if anticorrelated {
                rms_data::generators::anticorrelated(&mut data_rng, n, p.d)
            } else {
                rms_data::generators::independent(&mut data_rng, n, p.d)
            };
            let run = engine::run(&w, &p, &points, &mut tr);
            let mut gates = run.gates;
            let mut layer_values = Vec::new();
            if p.trace {
                let build_s = median(&run.phases.setup_s);
                layer_values.extend(layers::fdrms(&run.all_applies, build_s));
                let (initial, log) = (&run.initial, &run.log);
                layer_values.extend(layers::index(&p, initial, log, &run.applies, &mut tr));
                // The serving layers are not on this workload's path; their
                // numbers come from replaying its own op stream over the wire.
                let mut churn = stream::Churn::new(points, p.seed).0;
                let replay = wire::Mode::Replay(Duration::from_secs(3));
                let rep = wire::run(&w, &p, &mut churn, replay, &mut tr);
                layer_values.extend(rep.layers);
                layer_values.push(("gen.late_p99_ms", late_p99_ms(&run.phases)));
                gates.extend(rep.gates.into_iter().map(|g| Gate {
                    name: format!("serving replay: {}", g.name),
                    ..g
                }));
            }
            (run.phases, gates, run.attempted, run.failed, layer_values)
        }
        Kind::Wire { n } => {
            let initial = rms_data::generators::independent(&mut data_rng, n, p.d);
            let mut steady = stream::Steady::new(&initial, p.seed);
            let run = wire::run(&w, &p, &mut steady, wire::Mode::Full, &mut tr);
            let mut layer_values = Vec::new();
            if p.trace {
                // The engine is inside the service here; its numbers come
                // from replaying the ops sent, in the frames sent.
                let (initial, log) = (&run.initial, &run.log);
                let (applies, build_s) = engine::replay(&p, initial, log, &run.frames, &mut tr);
                layer_values.extend(layers::fdrms(&applies, build_s));
                layer_values.extend(layers::index(&p, initial, log, &applies, &mut tr));
                layer_values.extend(run.layers);
                layer_values.push(("gen.late_p99_ms", late_p99_ms(&run.phases)));
            }
            (
                run.phases,
                run.gates,
                run.attempted,
                run.failed,
                layer_values,
            )
        }
    };
    let rss = host::peak_rss_mb();
    let steal = host::steal_frac(ticks, host::cpu_ticks());

    let mut out = String::new();
    let reference = &phases.reference_ms;
    let _ = writeln!(
        out,
        "host reference_loop_ms={:.3} (median of {} rounds, min {:.3}, max {:.3}) steal_frac={steal:.4}",
        median(reference),
        reference.len(),
        reference.iter().copied().fold(f64::INFINITY, f64::min),
        reference.iter().copied().fold(0.0, f64::max),
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        out,
        "rounds: reference_loop_ms {} | apply_p50_us {}",
        list(reference),
        list(&phases.round_apply_p50)
    );
    for (label, step) in [("low", &phases.low), ("high", &phases.high)] {
        if step.grew_slices > 0 {
            let _ = writeln!(
                out,
                "step {label} ({:.0} ops/s): OVER CAPACITY in {} of {} slices — the backlog grew, so its latencies there are not a steady state",
                step.rate, step.grew_slices, step.slices
            );
        }
    }
    let e2e = end_to_end(&phases, rss);
    for m in &e2e {
        let _ = writeln!(
            out,
            "{} {} = {:.6} {} ({}){}",
            if p.trace { "traced" } else { "metric" },
            m.name,
            m.value,
            m.unit,
            m.note,
            if END_TO_END.contains(&m.name) {
                ""
            } else {
                " [not gated]"
            }
        );
    }
    let _ = writeln!(
        out,
        "metric ops_failed_frac = {:.6} ratio ({failed} of {attempted} ops failed or refused; the result line's failed/attempted) [not gated]",
        failed as f64 / attempted.max(1) as f64
    );
    let reported: Vec<Metric> = if p.trace {
        layer_metrics(&layer_values)
    } else {
        e2e.into_iter()
            .filter(|m| END_TO_END.contains(&m.name))
            .collect()
    };
    if p.trace {
        for m in &reported {
            let _ = writeln!(
                out,
                "layer {} = {:.6} {} ({})",
                m.name, m.value, m.unit, m.note
            );
        }
        let path = host::out_dir().join(format!("trace-{}-{}.jsonl", w.name, p.seed));
        match tr.write(&path) {
            Ok(summary) => {
                let _ = writeln!(out, "spans written to {}", path.display());
                out.push_str(&summary);
            }
            Err(e) => {
                let _ = writeln!(out, "could not write spans to {}: {e}", path.display());
            }
        }
    }
    // Gates run once per round; print each once, with its round count
    // and the detail of its first failure (else of its last run).
    let mut correct = true;
    let mut names: Vec<&str> = Vec::new();
    for g in &gates {
        correct &= g.ok;
        if !names.contains(&g.name.as_str()) {
            names.push(&g.name);
        }
    }
    for name in names {
        let runs: Vec<&Gate> = gates.iter().filter(|g| g.name == name).collect();
        let passed = runs.iter().filter(|g| g.ok).count();
        let shown = runs.iter().find(|g| !g.ok).unwrap_or(&runs[runs.len() - 1]);
        let _ = writeln!(
            out,
            "gate {} {name} ({passed}/{} runs){}",
            if passed == runs.len() { "ok  " } else { "FAIL" },
            runs.len(),
            if shown.detail.is_empty() {
                String::new()
            } else {
                format!(" [{}]", shown.detail)
            }
        );
    }
    let mrr = phases.mrr.mean();
    let mrr_ok = mrr <= MRR_CEILING;
    correct &= mrr_ok;
    let _ = writeln!(
        out,
        "gate {} mrr_mean <= {MRR_CEILING} ({mrr:.4})",
        if mrr_ok { "ok  " } else { "FAIL" }
    );
    print!("{out}");

    if let Some(bad) = reported.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number", bad.name);
        std::process::exit(3);
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program reports,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entry =
            |name: &str, unit: &str| format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        for (name, unit, _) in LAYER_METRICS {
            assert!(
                json.contains(&entry(name, unit)),
                "per_layer {name} ({unit})"
            );
        }
        for m in end_to_end(&Phases::default(), 1.0) {
            assert_eq!(
                json.contains(&entry(m.name, m.unit)),
                END_TO_END.contains(&m.name),
                "end_to_end {} ({})",
                m.name,
                m.unit
            );
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + LAYER_METRICS.len()
        );
    }

    #[test]
    fn rate_search_brackets_the_threshold() {
        let mut s = RateSearch::new(1_000.0);
        for _ in 0..ROUNDS {
            let r = s.rate();
            s.record(r <= 1_700.0);
        }
        let best = s.result();
        assert!(best <= 1_700.0 && best > 1_700.0 / 1.05, "{best}");
    }
}
