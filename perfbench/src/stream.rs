//! Seeded op streams. Every input the program receives is generated here
//! from the workload seed.

use fdrms::Op;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rms_geom::{Point, PointId};
use std::collections::{BTreeMap, VecDeque};

/// An endless, always-valid stream of ops over a tracked live set.
pub trait OpSource {
    fn next_op(&mut self) -> Op;
    /// The live database the ops so far leave behind, ascending by id.
    fn live(&self) -> BTreeMap<PointId, Vec<f64>>;
}

pub fn live_points(live: &BTreeMap<PointId, Vec<f64>>) -> Vec<Point> {
    live.iter()
        .map(|(&id, c)| Point::new_unchecked(id, c.clone()))
        .collect()
}

/// Mixed churn over a fixed dataset: half the tuples start live, inserts
/// take a random tuple from the rest, deletes return a random live tuple
/// to it, and updates move a random live tuple by at most ±5% per
/// coordinate (as `rms_data::mixed_workload` does). Inserts and deletes
/// are equally likely, so the live count stays near its start.
pub struct Churn {
    coords: Vec<Vec<f64>>,
    /// Position of each id in `live` or `pool`.
    pos: Vec<usize>,
    is_live: Vec<bool>,
    live: Vec<PointId>,
    pool: Vec<PointId>,
    rng: StdRng,
}

/// Kind weights out of 8: insert 3, delete 3, update 2.
const INSERT_W: u32 = 3;
const DELETE_W: u32 = 3;

impl Churn {
    /// `points` must carry ids `0..points.len()`; the first half starts
    /// live. Returns the stream and the initial live tuples.
    pub fn new(points: Vec<Point>, seed: u64) -> (Self, Vec<Point>) {
        let n = points.len();
        let half = n / 2;
        let initial: Vec<Point> = points[..half].to_vec();
        let mut pos = vec![0; n];
        let mut is_live = vec![false; n];
        let mut live = Vec::with_capacity(n);
        let mut pool = Vec::with_capacity(n);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.id(), i as PointId, "dataset ids are 0..n");
            if i < half {
                pos[i] = live.len();
                is_live[i] = true;
                live.push(p.id());
            } else {
                pos[i] = pool.len();
                pool.push(p.id());
            }
        }
        let coords = points.into_iter().map(|p| p.coords().to_vec()).collect();
        let stream = Self {
            coords,
            pos,
            is_live,
            live,
            pool,
            rng: StdRng::seed_from_u64(seed ^ 0x0C4A_57E4),
        };
        (stream, initial)
    }

    fn take(list: &mut Vec<PointId>, pos: &mut [usize], at: usize) -> PointId {
        let id = list.swap_remove(at);
        if let Some(&moved) = list.get(at) {
            pos[moved as usize] = at;
        }
        id
    }

    fn point(&self, id: PointId) -> Point {
        Point::new_unchecked(id, self.coords[id as usize].clone())
    }
}

impl OpSource for Churn {
    fn next_op(&mut self) -> Op {
        let roll: u32 = self.rng.gen_range(0..8);
        let insert = (roll < INSERT_W && !self.pool.is_empty()) || self.live.len() < 2;
        if insert {
            let at = self.rng.gen_range(0..self.pool.len());
            let id = Self::take(&mut self.pool, &mut self.pos, at);
            self.pos[id as usize] = self.live.len();
            self.is_live[id as usize] = true;
            self.live.push(id);
            return Op::Insert(self.point(id));
        }
        let at = self.rng.gen_range(0..self.live.len());
        if roll < INSERT_W + DELETE_W {
            let id = Self::take(&mut self.live, &mut self.pos, at);
            self.pos[id as usize] = self.pool.len();
            self.is_live[id as usize] = false;
            self.pool.push(id);
            return Op::Delete(id);
        }
        let id = self.live[at];
        let rng = &mut self.rng;
        for c in &mut self.coords[id as usize] {
            *c = (*c + rng.gen_range(-0.05..=0.05)).clamp(0.0, 1.0);
        }
        Op::Update(self.point(id))
    }

    fn live(&self) -> BTreeMap<PointId, Vec<f64>> {
        self.live
            .iter()
            .map(|&id| (id, self.coords[id as usize].clone()))
            .collect()
    }
}

/// Steady-state churn for the serving path: alternate a fresh insert
/// (new id, independent coordinates) and a delete of the oldest live
/// tuple, so the live count never changes.
pub struct Steady {
    live: BTreeMap<PointId, Vec<f64>>,
    order: VecDeque<PointId>,
    next_id: PointId,
    d: usize,
    flip: bool,
    rng: StdRng,
}

impl Steady {
    pub fn new(initial: &[Point], seed: u64) -> Self {
        Self {
            live: initial
                .iter()
                .map(|p| (p.id(), p.coords().to_vec()))
                .collect(),
            order: initial.iter().map(Point::id).collect(),
            next_id: 10_000_000,
            d: initial[0].dim(),
            flip: false,
            rng: StdRng::seed_from_u64(seed ^ 0x0057_EAD1),
        }
    }
}

impl OpSource for Steady {
    fn next_op(&mut self) -> Op {
        self.flip = !self.flip;
        if self.flip {
            let id = self.next_id;
            self.next_id += 1;
            let c: Vec<f64> = (0..self.d).map(|_| self.rng.gen()).collect();
            self.live.insert(id, c.clone());
            self.order.push_back(id);
            Op::Insert(Point::new_unchecked(id, c))
        } else {
            let id = self.order.pop_front().expect("the live set never drains");
            self.live.remove(&id);
            Op::Delete(id)
        }
    }

    fn live(&self) -> BTreeMap<PointId, Vec<f64>> {
        self.live.clone()
    }
}

/// How a closed loop sizes its batches.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Log-uniform over `1..=max`: single-op batches are common.
    LogUniform(usize),
    Fixed(usize),
}

impl Shape {
    pub fn next(self, rng: &mut StdRng) -> usize {
        match self {
            Shape::Fixed(n) => n,
            Shape::LogUniform(max) => {
                let x = (rng.gen::<f64>() * ((max + 1) as f64).ln()).exp();
                (x as usize).clamp(1, max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(live: &mut BTreeMap<PointId, Vec<f64>>, op: &Op) {
        match op {
            Op::Insert(p) => assert!(live.insert(p.id(), p.coords().to_vec()).is_none()),
            Op::Delete(id) => assert!(live.remove(id).is_some()),
            Op::Update(p) => assert!(live.insert(p.id(), p.coords().to_vec()).is_some()),
        }
    }

    #[test]
    fn churn_ops_are_valid_and_tracked() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = rms_data::generators::independent(&mut rng, 200, 3);
        let (mut s, init) = Churn::new(pts, 9);
        let mut live: BTreeMap<_, _> = init.iter().map(|p| (p.id(), p.coords().to_vec())).collect();
        for _ in 0..5_000 {
            apply(&mut live, &s.next_op());
        }
        assert_eq!(live, s.live());
    }

    #[test]
    fn steady_keeps_the_live_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = rms_data::generators::independent(&mut rng, 50, 3);
        let mut s = Steady::new(&pts, 3);
        let mut live: BTreeMap<_, _> = pts.iter().map(|p| (p.id(), p.coords().to_vec())).collect();
        for _ in 0..1_000 {
            apply(&mut live, &s.next_op());
        }
        assert_eq!(live, s.live());
        assert_eq!(live.len(), 50);
    }

    #[test]
    fn log_uniform_covers_its_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let sizes: Vec<usize> = (0..10_000)
            .map(|_| Shape::LogUniform(32).next(&mut rng))
            .collect();
        assert!(sizes.iter().all(|&b| (1..=32).contains(&b)));
        assert!(sizes.iter().filter(|&&b| b == 1).count() > 1_000);
        assert!(sizes.contains(&32));
    }
}
