//! Per-layer numbers for a traced run: the engine's own `BatchReport`
//! counts and `apply_batch` spans, and a replay of the workload's ops
//! through the index layer's public calls.

use crate::engine::Apply;
use crate::stats::fit_line;
use crate::trace::Tracer;
use crate::Params;
use fdrms::Op;
use rand::{rngs::StdRng, SeedableRng};
use rms_geom::{Point, Utility};
use rms_index::{ConeTree, KdTree};
use std::time::Instant;

pub type Layer = (&'static str, f64);

pub fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// `fdrms.*`: build time, single-op and per-batch cost from the
/// `apply_batch` calls, work counts from their `BatchReport`s (closed
/// loop only, where the batch shape is the workload's).
pub fn fdrms(applies: &[Apply], build_s: f64) -> Vec<Layer> {
    let singles: Vec<f64> = applies
        .iter()
        .filter(|a| a.ops == 1)
        .map(|a| a.us)
        .collect();
    let fit: Vec<(f64, f64)> = applies
        .iter()
        .filter(|a| (2..=32).contains(&a.ops))
        .map(|a| (a.ops as f64, a.us))
        .collect();
    let (fixed, per_op) = fit_line(&fit);
    let closed: Vec<&Apply> = applies.iter().filter(|a| a.closed).collect();
    let sum = |f: &dyn Fn(&Apply) -> f64| closed.iter().map(|a| f(a)).sum::<f64>();
    let ops = sum(&|a| a.ops as f64);
    let affected = sum(&|a| a.report.affected_utilities as f64);
    let batches = closed.len() as f64;
    vec![
        ("fdrms.build_s", build_s),
        (
            "fdrms.apply_single_us",
            ratio(singles.iter().sum(), singles.len() as f64),
        ),
        (
            "fdrms.batch_fixed_us",
            if fixed.is_finite() { fixed } else { 0.0 },
        ),
        (
            "fdrms.batch_per_op_us",
            if per_op.is_finite() { per_op } else { 0.0 },
        ),
        ("fdrms.affected_per_op", ratio(affected, ops)),
        (
            "fdrms.requery_ratio",
            ratio(sum(&|a| a.report.requeried_utilities as f64), affected),
        ),
        (
            "fdrms.membership_changes_per_op",
            ratio(
                sum(&|a| (a.report.membership_additions + a.report.membership_removals) as f64),
                ops,
            ),
        ),
        ("fdrms.m", ratio(sum(&|a| a.report.m as f64), batches)),
        (
            "fdrms.result_size",
            ratio(sum(&|a| a.report.result_size as f64), batches),
        ),
        (
            "rms-setcover.stabilize_moves_per_batch",
            ratio(sum(&|a| a.report.stabilize_moves as f64), batches),
        ),
    ]
}

/// `rms-index.*`: replays the workload's batches through `KdTree`
/// inserts and deletes, probes a `ConeTree` with each batch's written
/// tuples, and issues `top_k_approx_many` for as many utilities as the
/// engine requeried in that batch. Utilities are `M` seeded directions;
/// cone thresholds are `(1-ε)·ω_k` from the kd top-k at the start.
pub fn index(
    p: &Params,
    initial: &[Point],
    log: &[Op],
    applies: &[Apply],
    tr: &mut Tracer,
) -> Vec<Layer> {
    let mut kd = KdTree::build(p.d, initial.to_vec()).expect("valid tuples");
    let mut rng = StdRng::seed_from_u64(0x0017_D30C);
    let utils: Vec<Utility> = rms_geom::sample_utilities(&mut rng, p.d, p.max_m);
    let thresholds: Vec<(usize, f64)> = kd
        .top_k_approx_many(utils.iter(), p.k, p.eps)
        .into_iter()
        .enumerate()
        .map(|(i, (_, omega))| (i, (1.0 - p.eps) * omega.unwrap_or(0.0)))
        .collect();
    let mut cone = ConeTree::build(utils.clone());
    cone.set_thresholds(thresholds);

    let (mut kd_us, mut kd_calls) = (0.0, 0u64);
    let (mut topk_us, mut topk_utils) = (0.0, 0u64);
    let (mut cone_us, mut written_n, mut hits) = (0.0, 0u64, 0u64);
    let mut next_util = 0usize;
    let mut at = 0usize;
    for (b, a) in applies.iter().enumerate() {
        let batch = &log[at..at + a.ops];
        at += a.ops;
        let mut written: Vec<Point> = Vec::new();
        for op in batch {
            let (del, ins) = match op {
                Op::Insert(q) => (None, Some(q)),
                Op::Delete(id) => (Some(*id), None),
                Op::Update(q) => (Some(q.id()), Some(q)),
            };
            if let Some(id) = del {
                let s = tr.begin("rms-index.kd_delete", b as u64, 1);
                let t = Instant::now();
                kd.delete(id).expect("replayed delete of a live id");
                kd_us += t.elapsed().as_secs_f64() * 1e6;
                tr.end(s);
                kd_calls += 1;
            }
            if let Some(q) = ins {
                let s = tr.begin("rms-index.kd_insert", b as u64, 1);
                let t = Instant::now();
                kd.insert(q.clone()).expect("replayed insert of a fresh id");
                kd_us += t.elapsed().as_secs_f64() * 1e6;
                tr.end(s);
                kd_calls += 1;
                written.push(q.clone());
            }
        }
        if !written.is_empty() {
            let s = tr.begin("rms-index.cone_probe", b as u64, written.len() as u64);
            let t = Instant::now();
            let h = cone.affected_hits_many(written.iter());
            cone_us += t.elapsed().as_secs_f64() * 1e6;
            tr.end(s);
            written_n += written.len() as u64;
            hits += h.iter().map(|(_, v)| v.len() as u64).sum::<u64>();
        }
        let r = a.report.requeried_utilities.min(utils.len());
        if r > 0 {
            let picked: Vec<&Utility> = (0..r)
                .map(|j| &utils[(next_util + j) % utils.len()])
                .collect();
            next_util = (next_util + r) % utils.len();
            let s = tr.begin("rms-index.kd_topk", b as u64, r as u64);
            let t = Instant::now();
            std::hint::black_box(kd.top_k_approx_many(picked, p.k, p.eps));
            topk_us += t.elapsed().as_secs_f64() * 1e6;
            tr.end(s);
            topk_utils += r as u64;
        }
    }
    vec![
        ("rms-index.kd_update_us", ratio(kd_us, kd_calls as f64)),
        ("rms-index.kd_topk_us", ratio(topk_us, topk_utils as f64)),
        ("rms-index.cone_probe_us", ratio(cone_us, written_n as f64)),
        (
            "rms-index.cone_hits_per_tuple",
            ratio(hits as f64, written_n as f64),
        ),
    ]
}
