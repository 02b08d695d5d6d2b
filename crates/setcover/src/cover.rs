//! The dynamic set-cover structure (Algorithm 1 of the paper).

use crate::dynamicset::SpillSet;
use crate::level::LevelBase;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// Identifier of a universe element. In FD-RMS, elements are utility
/// vectors, indexed `0..m`.
pub type ElemId = u32;

/// Identifier of a set in the collection `S`. In FD-RMS, sets are tuples:
/// `S(p)` is identified by the tuple id of `p`.
pub type SetId = u64;

/// Inline capacity of element-id rows (`sets`, `cov`): a tuple's
/// ε-approximate top-k membership is usually a handful of utilities.
const ELEM_INLINE: usize = 16;

/// Inline capacity of set-id rows (`elem_sets`): most utilities sit in
/// few ε-bands.
const SET_INLINE: usize = 8;

/// A row of element ids — inline up to [`ELEM_INLINE`], hash-spilled
/// beyond. Returned by [`DynamicSetCover::members`].
pub type ElemRow = SpillSet<ElemId, ELEM_INLINE>;

/// A row of set ids — inline up to [`SET_INLINE`], hash-spilled beyond.
/// Returned by [`DynamicSetCover::sets_containing`].
pub type SetRow = SpillSet<SetId, SET_INLINE>;

/// Errors raised by [`DynamicSetCover`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverError {
    /// Inserting a set id that already exists.
    DuplicateSet(SetId),
    /// Operating on a set id that does not exist.
    UnknownSet(SetId),
    /// Inserting an element already in the universe.
    DuplicateElement(ElemId),
    /// Removing an element that is not in the universe.
    UnknownElement(ElemId),
    /// An element must be covered but no set in the system contains it.
    UncoverableElement(ElemId),
}

impl std::fmt::Display for CoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverError::DuplicateSet(s) => write!(f, "set {s} already exists"),
            CoverError::UnknownSet(s) => write!(f, "set {s} does not exist"),
            CoverError::DuplicateElement(u) => write!(f, "element {u} already in universe"),
            CoverError::UnknownElement(u) => write!(f, "element {u} not in universe"),
            CoverError::UncoverableElement(u) => {
                write!(f, "element {u} is contained in no set")
            }
        }
    }
}

impl std::error::Error for CoverError {}

/// A dynamic set-cover instance together with a maintained stable solution.
///
/// The structure holds the set system `Σ = (U, S)` (memberships may include
/// elements outside the current universe — they simply do not need
/// covering) and a solution `C` with assignment `φ`, kept stable in the
/// sense of Definition 2 after every mutation.
#[derive(Debug, Clone)]
pub struct DynamicSetCover {
    base: LevelBase,
    /// Membership `S`: set → elements it contains.
    sets: HashMap<SetId, ElemRow>,
    /// Inverse membership: element → sets containing it.
    elem_sets: HashMap<ElemId, SetRow>,
    /// The universe `U` (elements that must be covered).
    universe: HashSet<ElemId>,
    /// Assignment `φ : U → C`.
    phi: HashMap<ElemId, SetId>,
    /// Cover sets `cov(S)` for `S ∈ C`.
    cov: HashMap<SetId, ElemRow>,
    /// Level of each `S ∈ C`.
    level_of: HashMap<SetId, u32>,
    /// Intersection counters `|S ∩ A_j|` for every set (solution member or
    /// not) and level, maintained incrementally. Zero entries are pruned.
    cnt: HashMap<SetId, HashMap<u32, usize>>,
    /// Worklist of `(set, level)` pairs whose counter crossed the
    /// condition-(2) threshold, with a dedup guard.
    dirty: VecDeque<(SetId, u32)>,
    dirty_guard: HashSet<(SetId, u32)>,
    /// Cumulative number of stabilisation element moves (for the ablation
    /// benches).
    stabilize_moves: u64,
    /// When `true` (between [`DynamicSetCover::begin_batch`] and
    /// [`DynamicSetCover::commit`]), mutations accumulate violation
    /// candidates on the worklist instead of stabilising immediately.
    batching: bool,
    /// Reusable iteration buffers — hot maintenance paths snapshot rows
    /// they mutate under iteration into these instead of allocating fresh
    /// `Vec`s. Persist across `begin_batch()`/`commit()` transactions.
    scratch: Scratch,
}

/// Reusable scratch buffers for the maintenance loops. Each buffer is
/// owned by exactly one routine (taken with `mem::take`, cleared, and
/// put back) so nested calls never observe each other's contents.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `change_elem_level`: sets touching one element.
    touching: Vec<SetId>,
    /// `relevel`: snapshot of `cov(s)`.
    cov_elems: Vec<ElemId>,
    /// `stabilize`: the grabbed `S ∩ A_j`.
    grabbed: Vec<ElemId>,
    /// `stabilize`: former owners of grabbed elements (deduplicated).
    losers: SetRow,
}

impl Default for DynamicSetCover {
    fn default() -> Self {
        Self::new(LevelBase::TWO)
    }
}

impl DynamicSetCover {
    /// Creates an empty instance with the given level base.
    pub fn new(base: LevelBase) -> Self {
        Self {
            base,
            sets: HashMap::new(),
            elem_sets: HashMap::new(),
            universe: HashSet::new(),
            phi: HashMap::new(),
            cov: HashMap::new(),
            level_of: HashMap::new(),
            cnt: HashMap::new(),
            dirty: VecDeque::new(),
            dirty_guard: HashSet::new(),
            stabilize_moves: 0,
            batching: false,
            scratch: Scratch::default(),
        }
    }

    // ------------------------------------------------------------------
    // Deferred-stabilisation transactions
    // ------------------------------------------------------------------

    /// Starts a batch: subsequent mutations keep all membership, universe,
    /// assignment, and counter bookkeeping exact, but defer `STABILIZE`
    /// until [`DynamicSetCover::commit`]. Between the two calls the
    /// solution is a valid cover (every universe element stays assigned to
    /// a set containing it) but may violate the stability condition (2),
    /// so [`DynamicSetCover::check_invariants`] can fail mid-batch.
    ///
    /// Idempotent; batches do not nest.
    pub fn begin_batch(&mut self) {
        self.batching = true;
    }

    /// Ends the batch and runs `STABILIZE` once over every violation
    /// candidate the batched mutations accumulated. Returns the number of
    /// element moves this stabilisation pass performed. A no-op (returning
    /// 0) when no batch is open and the worklist is empty.
    pub fn commit(&mut self) -> u64 {
        self.batching = false;
        let before = self.stabilize_moves;
        self.stabilize();
        self.stabilize_moves - before
    }

    /// Whether a deferred-stabilisation batch is currently open.
    pub fn is_batching(&self) -> bool {
        self.batching
    }

    /// Runs `STABILIZE` unless a batch is open (mutation entry points call
    /// this so batched mutations only enqueue violation candidates).
    fn maybe_stabilize(&mut self) {
        if !self.batching {
            self.stabilize();
        }
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// Number of sets in the solution `|C|`.
    pub fn solution_size(&self) -> usize {
        self.cov.len()
    }

    /// The solution `C` as set ids (unspecified order).
    pub fn solution(&self) -> impl Iterator<Item = SetId> + '_ {
        self.cov.keys().copied()
    }

    /// Whether `s` is part of the solution.
    pub fn in_solution(&self, s: SetId) -> bool {
        self.cov.contains_key(&s)
    }

    /// The set `φ(u)` covering element `u`, if assigned.
    pub fn assignment(&self, u: ElemId) -> Option<SetId> {
        self.phi.get(&u).copied()
    }

    /// Size of the universe `m = |U|`.
    pub fn universe_size(&self) -> usize {
        self.universe.len()
    }

    /// Number of sets in the system `|S|`.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Whether the set `s` exists in the system.
    pub fn has_set(&self, s: SetId) -> bool {
        self.sets.contains_key(&s)
    }

    /// Whether element `u` is in the universe.
    pub fn has_element(&self, u: ElemId) -> bool {
        self.universe.contains(&u)
    }

    /// Membership of a set, if it exists.
    pub fn members(&self, s: SetId) -> Option<&ElemRow> {
        self.sets.get(&s)
    }

    /// All sets containing element `u` (its membership in the transposed
    /// system — in FD-RMS terms, the tuples whose `Φ_{k,ε}` contains `u`).
    pub fn sets_containing(&self, u: ElemId) -> Option<&SetRow> {
        self.elem_sets.get(&u)
    }

    /// Whether set `s` contains element `u`.
    pub fn set_contains(&self, s: SetId, u: ElemId) -> bool {
        self.sets.get(&s).is_some_and(|m| m.contains(&u))
    }

    /// Total element moves performed by `STABILIZE` so far (ablation
    /// instrumentation).
    pub fn stabilize_moves(&self) -> u64 {
        self.stabilize_moves
    }

    // ------------------------------------------------------------------
    // Membership and universe operations (the σ of Algorithm 1)
    // ------------------------------------------------------------------

    /// Adds a fresh set with the given members. Members need not be in the
    /// universe. The solution is unaffected (an empty-cov set never enters
    /// `C` spontaneously), but condition (2) may now be violated by the new
    /// set, so stabilisation runs.
    pub fn insert_set(
        &mut self,
        s: SetId,
        members: impl IntoIterator<Item = ElemId>,
    ) -> Result<(), CoverError> {
        if self.sets.contains_key(&s) {
            return Err(CoverError::DuplicateSet(s));
        }
        let members: ElemRow = members.into_iter().collect();
        for &u in &members {
            self.elem_sets.entry(u).or_default().insert(s);
            if let Some(level) = self.assigned_level(u) {
                self.bump_cnt(s, level, 1);
            }
        }
        self.sets.insert(s, members);
        self.maybe_stabilize();
        Ok(())
    }

    /// Removes a set from the system. Elements it covered are reassigned
    /// to other sets containing them (σ = (u, S, −) for each, per the
    /// deletion path of Algorithm 3). Elements contained in no remaining
    /// set are dropped from the universe and returned.
    pub fn remove_set(&mut self, s: SetId) -> Result<Vec<ElemId>, CoverError> {
        let Some(members) = self.sets.remove(&s) else {
            return Err(CoverError::UnknownSet(s));
        };
        for &u in &members {
            if let Some(es) = self.elem_sets.get_mut(&u) {
                es.remove(&s);
                if es.is_empty() {
                    self.elem_sets.remove(&u);
                }
            }
        }
        // Detach the solution bookkeeping for s.
        let orphans: Vec<ElemId> = match self.cov.remove(&s) {
            Some(cov) => {
                let j = self.level_of.remove(&s).expect("solution sets have levels");
                let orphans: Vec<ElemId> = cov.iter().copied().collect();
                for &u in &orphans {
                    self.phi.remove(&u);
                    self.change_elem_level(u, Some(j), None);
                }
                orphans
            }
            None => Vec::new(),
        };
        self.cnt.remove(&s);

        let mut dropped = Vec::new();
        for u in orphans {
            if self.try_assign(u).is_err() {
                self.universe.remove(&u);
                dropped.push(u);
            }
        }
        self.maybe_stabilize();
        Ok(dropped)
    }

    /// σ = (u, S, +): adds element `u` to set `s`.
    pub fn add_to_set(&mut self, u: ElemId, s: SetId) -> Result<(), CoverError> {
        let Some(members) = self.sets.get_mut(&s) else {
            return Err(CoverError::UnknownSet(s));
        };
        if !members.insert(u) {
            return Ok(()); // already a member — no-op
        }
        self.elem_sets.entry(u).or_default().insert(s);
        if let Some(level) = self.assigned_level(u) {
            self.bump_cnt(s, level, 1);
        }
        self.maybe_stabilize();
        Ok(())
    }

    /// σ = (u, S, −): removes element `u` from set `s`. If `u` was
    /// assigned to `s`, it is reassigned to another set containing it
    /// (Lines 2–5 of Algorithm 1); if no such set exists, `u` is dropped
    /// from the universe and `Ok(false)` is returned. `Ok(true)` means `u`
    /// remains covered (or was not in the universe at all).
    pub fn remove_from_set(&mut self, u: ElemId, s: SetId) -> Result<bool, CoverError> {
        let Some(members) = self.sets.get_mut(&s) else {
            return Err(CoverError::UnknownSet(s));
        };
        if !members.remove(&u) {
            return Ok(true); // was not a member — no-op
        }
        if let Some(es) = self.elem_sets.get_mut(&u) {
            es.remove(&s);
            if es.is_empty() {
                self.elem_sets.remove(&u);
            }
        }
        if let Some(level) = self.assigned_level(u) {
            self.bump_cnt(s, level, usize::MAX); // decrement
            if self.phi.get(&u) == Some(&s) {
                self.unassign(u);
                if self.try_assign(u).is_err() {
                    self.universe.remove(&u);
                    self.maybe_stabilize();
                    return Ok(false);
                }
            }
        }
        self.maybe_stabilize();
        Ok(true)
    }

    /// σ = (u, U, +): adds element `u` to the universe and assigns it.
    ///
    /// Fails with [`CoverError::UncoverableElement`] if no set contains
    /// `u`; callers add memberships first (as FD-RMS does in Algorithm 4).
    pub fn insert_element(&mut self, u: ElemId) -> Result<(), CoverError> {
        if self.universe.contains(&u) {
            return Err(CoverError::DuplicateElement(u));
        }
        if self.elem_sets.get(&u).is_none_or(|es| es.is_empty()) {
            return Err(CoverError::UncoverableElement(u));
        }
        self.universe.insert(u);
        // Memberships of u now count towards cnt: u enters level(φ(u))
        // inside try_assign via change_elem_level.
        self.try_assign(u).expect("membership checked above");
        self.maybe_stabilize();
        Ok(())
    }

    /// σ = (u, U, −): removes element `u` from the universe.
    pub fn remove_element(&mut self, u: ElemId) -> Result<(), CoverError> {
        if !self.universe.remove(&u) {
            return Err(CoverError::UnknownElement(u));
        }
        if self.phi.contains_key(&u) {
            self.unassign(u);
        }
        self.maybe_stabilize();
        Ok(())
    }

    /// Replaces the universe wholesale, discarding the current solution.
    ///
    /// Used by the FD-RMS initialisation (Algorithm 2), which sizes its
    /// binary-search probes with [`DynamicSetCover::greedy_picks`] and then
    /// installs the winning `U = {u_1, …, u_m}` once with this and
    /// [`DynamicSetCover::greedy`] — incremental element insertion would
    /// waste stabilisation work that greedy immediately throws away. Until
    /// `greedy` runs the structure has no cover.
    pub fn reset_universe(&mut self, elems: impl IntoIterator<Item = ElemId>) {
        self.clear_solution();
        self.universe = elems.into_iter().collect();
    }

    /// Drops `C`, `φ`, the levels, the counters and the worklist.
    fn clear_solution(&mut self) {
        self.phi.clear();
        self.cov.clear();
        self.level_of.clear();
        self.cnt.clear();
        self.dirty.clear();
        self.dirty_guard.clear();
    }

    // ------------------------------------------------------------------
    // GREEDY initialisation (Lines 13–19 of Algorithm 1)
    // ------------------------------------------------------------------

    /// The sets the classic greedy algorithm picks to cover `universe`, in
    /// pick order, computed without touching the maintained state.
    ///
    /// Each step takes the set with the most uncovered members, ties going
    /// to the smaller id. Scratch is flat: membership rows filtered to
    /// `universe`, an uncovered map indexed by element id (as long as the
    /// largest id) and a lazy max-heap. Fails with
    /// [`CoverError::UncoverableElement`] naming the smallest element of
    /// `universe` that no set contains.
    pub fn greedy_picks(
        &self,
        universe: impl IntoIterator<Item = ElemId>,
    ) -> Result<Vec<SetId>, CoverError> {
        let mut uncovered: Vec<bool> = Vec::new();
        let mut left = 0usize;
        for u in universe {
            let i = u as usize;
            if i >= uncovered.len() {
                uncovered.resize(i + 1, false);
            }
            if !uncovered[i] {
                uncovered[i] = true;
                left += 1;
            }
        }

        // Row `i` of the filtered system is `elems[start[i]..start[i + 1]]`;
        // sets meeting no universe element get no row.
        let mut elems: Vec<ElemId> = Vec::new();
        let mut start = vec![0];
        let mut heap = Vec::new();
        for (&s, members) in &self.sets {
            let before = elems.len();
            elems.extend(
                members
                    .iter()
                    .copied()
                    .filter(|&u| uncovered.get(u as usize) == Some(&true)),
            );
            if elems.len() > before {
                heap.push((elems.len() - before, Reverse(s), start.len() - 1));
                start.push(elems.len());
            }
        }
        // Lazy-decrement max-heap over |S ∩ I|: counts only ever shrink, so
        // a popped entry matching its recomputed count is globally maximal.
        let mut heap = BinaryHeap::from(heap);
        let mut picks = Vec::new();
        while left > 0 {
            let Some((c, Reverse(s), row)) = heap.pop() else {
                let u = uncovered.iter().position(|&x| x).expect("left > 0");
                return Err(CoverError::UncoverableElement(u as ElemId));
            };
            let members = &elems[start[row]..start[row + 1]];
            let fresh = members.iter().filter(|&&u| uncovered[u as usize]).count();
            if fresh < c {
                // Stale entry: reinsert with the true count.
                if fresh > 0 {
                    heap.push((fresh, Reverse(s), row));
                }
                continue;
            }
            for &u in members {
                uncovered[u as usize] = false;
            }
            left -= fresh;
            picks.push(s);
        }
        Ok(picks)
    }

    /// Discards the current solution and recomputes one with the classic
    /// greedy algorithm ([`DynamicSetCover::greedy_picks`] over the
    /// universe), assigning every chosen set to its level. By Lemma 1 the
    /// result is stable. On error the structure is left as
    /// [`DynamicSetCover::reset_universe`] leaves it: universe kept, no
    /// solution.
    pub fn greedy(&mut self) -> Result<(), CoverError> {
        let picks = self.greedy_picks(self.universe.iter().copied());
        self.clear_solution();
        for s in picks? {
            let fresh: ElemRow = self.sets[&s]
                .iter()
                .copied()
                .filter(|u| self.universe.contains(u) && !self.phi.contains_key(u))
                .collect();
            for &u in &fresh {
                self.phi.insert(u, s);
            }
            self.level_of.insert(s, self.base.level_for(fresh.len()));
            self.cov.insert(s, fresh);
        }

        // Rebuild the intersection counters from scratch.
        for &u in &self.universe {
            let level = self.assigned_level(u).expect("all covered");
            if let Some(es) = self.elem_sets.get(&u) {
                for &t in es {
                    *self.cnt.entry(t).or_default().entry(level).or_insert(0) += 1;
                }
            }
        }
        // Lemma 1: the greedy solution is stable; verify cheaply in debug.
        debug_assert!(
            self.find_violation().is_none(),
            "greedy produced unstable C"
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The level of the set currently covering `u`, if `u` is assigned.
    fn assigned_level(&self, u: ElemId) -> Option<u32> {
        let s = self.phi.get(&u)?;
        Some(*self.level_of.get(s).expect("φ targets are in C"))
    }

    /// Adjusts `cnt[s][level]` by +1 (`delta = 1`) or −1 (`delta =
    /// usize::MAX`), enqueuing a violation candidate when the threshold is
    /// crossed upward.
    fn bump_cnt(&mut self, s: SetId, level: u32, delta: usize) {
        let per_set = self.cnt.entry(s).or_default();
        let c = per_set.entry(level).or_insert(0);
        if delta == 1 {
            *c += 1;
            if *c >= self.base.threshold(level) && self.dirty_guard.insert((s, level)) {
                self.dirty.push_back((s, level));
            }
        } else {
            debug_assert!(*c > 0, "cnt underflow for set {s} level {level}");
            *c -= 1;
            if *c == 0 {
                per_set.remove(&level);
                if per_set.is_empty() {
                    self.cnt.remove(&s);
                }
            }
        }
    }

    /// Updates every containing set's counters when `u`'s assigned level
    /// changes (`None` = unassigned / outside universe).
    fn change_elem_level(&mut self, u: ElemId, old: Option<u32>, new: Option<u32>) {
        if old == new {
            return;
        }
        let Some(es) = self.elem_sets.get(&u) else {
            return;
        };
        // Reused scratch: `bump_cnt` needs `&mut self`, so the row is
        // snapshotted — but into a persistent buffer, not a fresh Vec.
        let mut touching = std::mem::take(&mut self.scratch.touching);
        touching.clear();
        touching.extend(es.iter().copied());
        for &t in &touching {
            if let Some(j) = old {
                self.bump_cnt(t, j, usize::MAX);
            }
            if let Some(j) = new {
                self.bump_cnt(t, j, 1);
            }
        }
        self.scratch.touching = touching;
    }

    /// Assigns `u` to a set containing it, preferring solution members
    /// (Line 4 of Algorithm 1 reassigns to "S+ ∈ S s.t. u ∈ S+"; choosing
    /// an existing solution member keeps `|C|` from growing needlessly,
    /// and among those the largest cover set is the most stable home).
    fn try_assign(&mut self, u: ElemId) -> Result<(), CoverError> {
        debug_assert!(!self.phi.contains_key(&u));
        let Some(es) = self.elem_sets.get(&u) else {
            return Err(CoverError::UncoverableElement(u));
        };
        if es.is_empty() {
            return Err(CoverError::UncoverableElement(u));
        }
        let target = es
            .iter()
            .copied()
            .filter(|s| self.cov.contains_key(s))
            .max_by_key(|s| (self.cov[s].len(), Reverse(*s)))
            .or_else(|| es.iter().copied().min())
            .expect("membership nonempty");

        if let Some(cov) = self.cov.get_mut(&target) {
            cov.insert(u);
            self.phi.insert(u, target);
            let level = self.level_of[&target];
            self.change_elem_level(u, None, Some(level));
            self.relevel(target);
        } else {
            self.cov.insert(target, std::iter::once(u).collect());
            self.level_of.insert(target, self.base.level_for(1));
            self.phi.insert(u, target);
            self.change_elem_level(u, None, Some(self.base.level_for(1)));
        }
        Ok(())
    }

    /// Removes `u` from its cover set (keeping it in the universe) and
    /// relevels the former owner.
    fn unassign(&mut self, u: ElemId) {
        let s = self.phi.remove(&u).expect("unassign of unassigned element");
        let j = self.level_of[&s];
        self.cov.get_mut(&s).expect("φ target in C").remove(&u);
        self.change_elem_level(u, Some(j), None);
        self.relevel(s);
    }

    /// RELEVEL (Lines 20–27 of Algorithm 1): moves `s` to the level
    /// matching `|cov(s)|`, or removes it from `C` when its cover set is
    /// empty. Level moves update the assigned level of every covered
    /// element.
    fn relevel(&mut self, s: SetId) {
        let Some(cov) = self.cov.get(&s) else {
            return;
        };
        if cov.is_empty() {
            self.cov.remove(&s);
            self.level_of.remove(&s);
            return;
        }
        let j = self.level_of[&s];
        let j_new = self.base.level_for(cov.len());
        if j_new == j {
            return;
        }
        self.level_of.insert(s, j_new);
        // Reused scratch, same pattern as `change_elem_level` (which runs
        // inside the loop and takes a different buffer).
        let mut elems = std::mem::take(&mut self.scratch.cov_elems);
        elems.clear();
        elems.extend(self.cov[&s].iter().copied());
        for &u in &elems {
            self.change_elem_level(u, Some(j), Some(j_new));
        }
        self.scratch.cov_elems = elems;
    }

    /// STABILIZE (Lines 28–32 of Algorithm 1): while some set intersects a
    /// level's assigned elements in at least `b^{j+1}` elements, that set
    /// grabs the whole intersection into its own cover set, releveling all
    /// touched sets.
    fn stabilize(&mut self) {
        // Lemma 2: every move strictly raises an element's level, so the
        // loop terminates after O(m log m) moves. The generous cap turns a
        // bookkeeping bug into a loud failure rather than a hang.
        let cap = 64 * (self.universe.len() as u64 + 2) * 64 + 4096;
        let mut guard = 0u64;
        // Reused scratch across the whole drain (and across transactions).
        let mut grabbed = std::mem::take(&mut self.scratch.grabbed);
        let mut losers = std::mem::take(&mut self.scratch.losers);
        while let Some((s, j)) = self.dirty.pop_front() {
            self.dirty_guard.remove(&(s, j));
            guard += 1;
            assert!(guard < cap, "STABILIZE failed to converge — invariant bug");
            // Revalidate: the entry may be stale.
            if !self.sets.contains_key(&s) {
                continue;
            }
            let current = self
                .cnt
                .get(&s)
                .and_then(|m| m.get(&j))
                .copied()
                .unwrap_or(0);
            if current < self.base.threshold(j) {
                continue;
            }
            // Grab S ∩ A_j. Elements already assigned to s (possible when s
            // itself sits at level j) stay put.
            grabbed.clear();
            grabbed.extend(
                self.sets[&s]
                    .iter()
                    .copied()
                    .filter(|u| self.assigned_level(*u) == Some(j) && self.phi.get(u) != Some(&s)),
            );
            if grabbed.is_empty() {
                continue;
            }
            // Ensure s is in the solution.
            if let std::collections::hash_map::Entry::Vacant(e) = self.cov.entry(s) {
                e.insert(ElemRow::default());
                // Provisional level; corrected by relevel below. Using j
                // keeps the grabbed elements' level transition accurate.
                self.level_of.insert(s, j);
            }
            let s_level = self.level_of[&s];
            losers.clear();
            for &u in &grabbed {
                let old = self
                    .phi
                    .insert(u, s)
                    .expect("grabbed elements are assigned");
                self.cov.get_mut(&old).expect("old owner in C").remove(&u);
                losers.insert(old);
                self.cov.get_mut(&s).expect("just ensured").insert(u);
                self.change_elem_level(u, Some(j), Some(s_level));
                self.stabilize_moves += 1;
            }
            self.relevel(s);
            for &t in &losers {
                self.relevel(t);
            }
        }
        self.scratch.grabbed = grabbed;
        self.scratch.losers = losers;
    }

    // ------------------------------------------------------------------
    // Verification (tests, debug)
    // ------------------------------------------------------------------

    /// Scans for a condition-(2) violation; `None` means stable.
    fn find_violation(&self) -> Option<(SetId, u32)> {
        for (&s, per_level) in &self.cnt {
            for (&j, &c) in per_level {
                if c >= self.base.threshold(j) {
                    // Exclude elements already covered by s itself at j —
                    // grabbing them changes nothing (see `stabilize`).
                    let movable = self.sets[&s]
                        .iter()
                        .filter(|u| {
                            self.assigned_level(**u) == Some(j) && self.phi.get(u) != Some(&s)
                        })
                        .count();
                    let own = c - movable;
                    if movable > 0 && own + movable >= self.base.threshold(j) {
                        return Some((s, j));
                    }
                }
            }
        }
        None
    }

    /// Exhaustively checks every invariant. Intended for tests; runs in
    /// time proportional to the whole structure.
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1. Every universe element is assigned to a solution set that
        //    contains it; cover sets partition the universe.
        let mut seen: HashSet<ElemId> = HashSet::new();
        for (&s, cov) in &self.cov {
            if cov.is_empty() {
                return Err(format!("solution set {s} has empty cover"));
            }
            if !self.sets.contains_key(&s) {
                return Err(format!("solution set {s} not in system"));
            }
            for &u in cov {
                if !self.universe.contains(&u) {
                    return Err(format!("cov({s}) holds non-universe element {u}"));
                }
                if !self.sets[&s].contains(&u) {
                    return Err(format!("cov({s}) holds non-member {u}"));
                }
                if self.phi.get(&u) != Some(&s) {
                    return Err(format!("φ({u}) disagrees with cov({s})"));
                }
                if !seen.insert(u) {
                    return Err(format!("element {u} covered twice"));
                }
            }
        }
        if seen.len() != self.universe.len() {
            return Err(format!(
                "covered {} of {} universe elements",
                seen.len(),
                self.universe.len()
            ));
        }
        // 2. Condition (1): levels match cover sizes.
        for (&s, cov) in &self.cov {
            let want = self.base.level_for(cov.len());
            let got = *self
                .level_of
                .get(&s)
                .ok_or_else(|| format!("set {s} missing level"))?;
            if want != got {
                return Err(format!(
                    "set {s}: |cov| = {} ⇒ level {want}, stored {got}",
                    cov.len()
                ));
            }
        }
        // 3. Counters match a recomputation.
        let mut want_cnt: HashMap<SetId, HashMap<u32, usize>> = HashMap::new();
        for &u in &self.universe {
            if let Some(level) = self.assigned_level(u) {
                if let Some(es) = self.elem_sets.get(&u) {
                    for &t in es {
                        *want_cnt.entry(t).or_default().entry(level).or_insert(0) += 1;
                    }
                }
            }
        }
        if want_cnt != self.cnt {
            return Err("intersection counters out of sync".to_string());
        }
        // 4. Condition (2): no actionable violation remains.
        if let Some((s, j)) = self.find_violation() {
            return Err(format!("unstable: set {s} vs level {j}"));
        }
        // 5. Inverse membership is consistent.
        for (&s, members) in &self.sets {
            for &u in members {
                if !self.elem_sets.get(&u).is_some_and(|es| es.contains(&s)) {
                    return Err(format!("elem_sets missing ({u}, {s})"));
                }
            }
        }
        for (&u, es) in &self.elem_sets {
            for &s in es {
                if !self.sets.get(&s).is_some_and(|m| m.contains(&u)) {
                    return Err(format!("elem_sets stale entry ({u}, {s})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a cover instance over elements `0..m` from (set, members).
    fn build(m: u32, sets: &[(SetId, &[ElemId])]) -> DynamicSetCover {
        let mut c = DynamicSetCover::default();
        for &(s, members) in sets {
            c.insert_set(s, members.iter().copied()).unwrap();
        }
        for u in 0..m {
            c.insert_element(u).unwrap();
        }
        c
    }

    #[test]
    fn greedy_covers_and_is_stable() {
        let mut c = build(
            6,
            &[(1, &[0, 1, 2, 3]), (2, &[3, 4]), (3, &[4, 5]), (4, &[5])],
        );
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        // Optimal is {1, 3}: greedy picks set 1 (4 fresh), then set 3.
        assert_eq!(c.solution_size(), 2);
        assert!(c.in_solution(1) && c.in_solution(3));
    }

    #[test]
    fn incremental_inserts_keep_cover() {
        let mut c = DynamicSetCover::default();
        c.insert_set(10, [0, 1]).unwrap();
        c.insert_element(0).unwrap();
        c.insert_element(1).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
        assert_eq!(c.assignment(0), Some(10));
        assert_eq!(c.assignment(1), Some(10));
    }

    #[test]
    fn uncoverable_element_rejected() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0]).unwrap();
        assert_eq!(
            c.insert_element(99),
            Err(CoverError::UncoverableElement(99))
        );
    }

    #[test]
    fn duplicate_errors() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0]).unwrap();
        assert_eq!(c.insert_set(1, [1]), Err(CoverError::DuplicateSet(1)));
        c.insert_element(0).unwrap();
        assert_eq!(c.insert_element(0), Err(CoverError::DuplicateElement(0)));
        assert_eq!(c.remove_element(5), Err(CoverError::UnknownElement(5)));
        assert_eq!(c.remove_set(9), Err(CoverError::UnknownSet(9)));
        assert_eq!(c.add_to_set(0, 9), Err(CoverError::UnknownSet(9)));
    }

    #[test]
    fn remove_from_set_reassigns() {
        let mut c = build(2, &[(1, &[0, 1]), (2, &[0])]);
        c.greedy().unwrap();
        assert_eq!(c.assignment(0), Some(1));
        // Remove 0 from set 1: must be reassigned to set 2.
        assert!(c.remove_from_set(0, 1).unwrap());
        assert_eq!(c.assignment(0), Some(2));
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_from_set_drops_uncoverable() {
        let mut c = build(2, &[(1, &[0, 1])]);
        c.greedy().unwrap();
        assert!(!c.remove_from_set(0, 1).unwrap());
        assert!(!c.has_element(0));
        assert!(c.has_element(1));
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_set_reassigns_cover() {
        let mut c = build(3, &[(1, &[0, 1, 2]), (2, &[0, 1]), (3, &[2])]);
        c.greedy().unwrap();
        assert!(c.in_solution(1));
        let dropped = c.remove_set(1).unwrap();
        assert!(dropped.is_empty());
        c.check_invariants().unwrap();
        assert!(!c.has_set(1));
        assert_eq!(c.universe_size(), 3);
    }

    #[test]
    fn remove_set_drops_exclusive_elements() {
        let mut c = build(2, &[(1, &[0, 1]), (2, &[1])]);
        c.greedy().unwrap();
        let dropped = c.remove_set(1).unwrap();
        assert_eq!(dropped, vec![0]);
        assert!(!c.has_element(0));
        assert_eq!(c.assignment(1), Some(2));
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_element_shrinks_cover() {
        let mut c = build(3, &[(1, &[0, 1, 2])]);
        c.greedy().unwrap();
        c.remove_element(0).unwrap();
        c.remove_element(1).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.universe_size(), 1);
        assert_eq!(c.solution_size(), 1);
        c.remove_element(2).unwrap();
        assert_eq!(c.solution_size(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn stabilize_consolidates_scattered_assignments() {
        // Elements 0..8 initially covered by 8 singleton sets; then a new
        // set containing all of them arrives. Condition (2) forces the big
        // set to grab everything: |S ∩ A_0| = 8 ≥ 2.
        let mut c = DynamicSetCover::default();
        for u in 0..8u32 {
            c.insert_set(u as SetId + 1, [u]).unwrap();
        }
        for u in 0..8 {
            c.insert_element(u).unwrap();
        }
        assert_eq!(c.solution_size(), 8);
        c.insert_set(100, 0..8).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
        assert!(c.in_solution(100));
        assert!(c.stabilize_moves() >= 8);
    }

    #[test]
    fn add_to_set_can_trigger_stabilize() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0]).unwrap();
        c.insert_set(2, [1]).unwrap();
        c.insert_set(3, []).unwrap();
        c.insert_element(0).unwrap();
        c.insert_element(1).unwrap();
        assert_eq!(c.solution_size(), 2);
        // Growing set 3 to contain both level-0 elements violates (2).
        c.add_to_set(0, 3).unwrap();
        c.add_to_set(1, 3).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
        assert!(c.in_solution(3));
    }

    #[test]
    fn solution_quality_is_logarithmic() {
        // Universe 0..n covered by: one full set + n singletons. A stable
        // solution must use O(log n) sets — in fact the full set only.
        let n: u32 = 64;
        let mut c = DynamicSetCover::default();
        c.insert_set(1000, 0..n).unwrap();
        for u in 0..n {
            c.insert_set(u as SetId, [u]).unwrap();
        }
        for u in 0..n {
            c.insert_element(u).unwrap();
        }
        c.check_invariants().unwrap();
        // Theorem 1: |C| ≤ (2 + 2·log2 m)·OPT with OPT = 1 here.
        let bound = 2.0 + 2.0 * (n as f64).log2();
        assert!(
            (c.solution_size() as f64) <= bound,
            "|C| = {} exceeds stable bound {bound}",
            c.solution_size()
        );
    }

    #[test]
    fn greedy_matches_paper_example_fig3b() {
        // Fig. 3b: U = {u1..u6}, solution {S(p1), S(p2), S(p4)} with
        // cov(S(p1)) = {u2, u5}, cov(S(p4)) = {u1, u4, u6}, cov(S(p2)) =
        // {u3}. Memberships (1-RMS, ε = 0.002 on the example data):
        // S(p1) ⊇ {u2, u5} (top for near-y directions), S(p2) ∋ u3,
        // S(p4) ⊇ {u1, u4, u6}. We reproduce the set system shape.
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [1, 4]).unwrap(); // S(p1): u2, u5
        c.insert_set(2, [2]).unwrap(); // S(p2): u3
        c.insert_set(4, [0, 3, 5]).unwrap(); // S(p4): u1, u4, u6
        for u in 0..6 {
            c.insert_element(u).unwrap();
        }
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 3);
        assert!(c.in_solution(1) && c.in_solution(2) && c.in_solution(4));
    }

    #[test]
    fn configurable_level_base() {
        let mut c = DynamicSetCover::new(LevelBase::new(4.0));
        c.insert_set(1, 0..16).unwrap();
        for u in 0..16 {
            c.insert_element(u).unwrap();
        }
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
    }

    #[test]
    fn greedy_on_empty_universe() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0, 1]).unwrap();
        c.greedy().unwrap();
        assert_eq!(c.solution_size(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn greedy_uncoverable() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0]).unwrap();
        c.insert_element(0).unwrap();
        // Force an uncovered element artificially: remove set then greedy.
        let dropped = c.remove_set(1).unwrap();
        assert_eq!(dropped, vec![0]);
        c.greedy().unwrap(); // empty universe now — fine
        assert_eq!(c.solution_size(), 0);
    }

    #[test]
    fn greedy_error_leaves_no_partial_solution() {
        let mut c = DynamicSetCover::default();
        c.insert_set(1, [0, 1]).unwrap();
        c.insert_set(2, [1]).unwrap();
        c.reset_universe(0..3);
        assert_eq!(c.greedy(), Err(CoverError::UncoverableElement(2)));
        assert_eq!(c.solution_size(), 0);
        assert_eq!(c.universe_size(), 3);
        assert_eq!(c.assignment(0), None);
        c.insert_set(3, [2]).unwrap();
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 2);
    }

    #[test]
    fn greedy_picks_in_pick_order_without_installing() {
        let c = build(
            6,
            &[(1, &[0, 1, 2, 3]), (2, &[3, 4]), (3, &[4, 5]), (4, &[5])],
        );
        let before: Vec<SetId> = c.solution().collect();
        assert_eq!(c.greedy_picks(0..6), Ok(vec![1, 3]));
        // Ties go to the smaller id.
        assert_eq!(c.greedy_picks([3]), Ok(vec![1]));
        assert_eq!(c.greedy_picks([5]), Ok(vec![3]));
        assert_eq!(c.greedy_picks(std::iter::empty()), Ok(vec![]));
        assert_eq!(
            c.greedy_picks([9, 7, 0]),
            Err(CoverError::UncoverableElement(7))
        );
        assert_eq!(c.solution().collect::<Vec<_>>(), before);
        c.check_invariants().unwrap();
    }

    #[test]
    fn membership_accessors() {
        let c = build(3, &[(1, &[0, 1]), (2, &[1, 2])]);
        assert!(c.set_contains(1, 0));
        assert!(!c.set_contains(1, 2));
        assert!(!c.set_contains(42, 0));
        let of1: Vec<SetId> = {
            let mut v: Vec<SetId> = c.sets_containing(1).unwrap().iter().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(of1, vec![1, 2]);
        assert!(c.sets_containing(99).is_none());
    }

    #[test]
    fn reset_universe_supports_binary_search() {
        let mut c = build(6, &[(1, &[0, 1, 2, 3]), (2, &[2, 3, 4, 5]), (3, &[4, 5])]);
        // Probe a smaller universe, then a larger one, as Algorithm 2 does.
        c.reset_universe(0..3);
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.universe_size(), 3);
        assert_eq!(c.solution_size(), 1);
        c.reset_universe(0..6);
        c.greedy().unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.universe_size(), 6);
        assert_eq!(c.solution_size(), 2);
    }

    #[test]
    fn batched_mutations_stabilize_once_at_commit() {
        // Same scenario as `stabilize_consolidates_scattered_assignments`,
        // but inside a batch: the violation must persist until commit.
        let mut c = DynamicSetCover::default();
        for u in 0..8u32 {
            c.insert_set(u as SetId + 1, [u]).unwrap();
        }
        for u in 0..8 {
            c.insert_element(u).unwrap();
        }
        assert_eq!(c.solution_size(), 8);
        c.begin_batch();
        assert!(c.is_batching());
        c.insert_set(100, 0..8).unwrap();
        // Deferred: the scattered singletons still form the solution.
        assert_eq!(c.solution_size(), 8);
        let moves = c.commit();
        assert!(!c.is_batching());
        assert!(moves >= 8, "commit reported {moves} moves");
        c.check_invariants().unwrap();
        assert_eq!(c.solution_size(), 1);
        assert!(c.in_solution(100));
    }

    #[test]
    fn batch_keeps_cover_valid_mid_flight() {
        // Coverage bookkeeping (φ, universe drops, reassignment) stays
        // exact inside a batch; only condition (2) is deferred.
        let mut c = build(3, &[(1, &[0, 1, 2]), (2, &[0, 1])]);
        c.greedy().unwrap();
        c.begin_batch();
        let dropped = c.remove_set(1).unwrap();
        assert_eq!(dropped, vec![2]); // element 2 had no other set
        assert_eq!(c.assignment(0), Some(2));
        assert_eq!(c.assignment(1), Some(2));
        c.commit();
        c.check_invariants().unwrap();
        assert_eq!(c.universe_size(), 2);
    }

    #[test]
    fn commit_without_batch_is_noop() {
        let mut c = build(2, &[(1, &[0, 1])]);
        assert_eq!(c.commit(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn batched_and_sequential_randomized_streams_both_stabilize() {
        // The same mutation stream applied per-op and batched must both
        // end stable with identical set systems and universes (the
        // *solution* may differ — stable covers are not unique).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut seq = DynamicSetCover::default();
        let mut bat = DynamicSetCover::default();
        for s in 0..20u64 {
            let members: Vec<ElemId> = (0..40u32).filter(|_| rng.gen_bool(0.25)).collect();
            seq.insert_set(s, members.iter().copied()).unwrap();
            bat.insert_set(s, members).unwrap();
        }
        for u in 0..40u32 {
            let a = seq.insert_element(u).is_ok();
            let b = bat.insert_element(u).is_ok();
            assert_eq!(a, b);
        }
        let muts: Vec<(u32, u64, bool)> = (0..200)
            .map(|_| {
                (
                    rng.gen_range(0..40u32),
                    rng.gen_range(0..20u64),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        bat.begin_batch();
        for &(u, s, add) in &muts {
            if add {
                seq.add_to_set(u, s).unwrap();
                bat.add_to_set(u, s).unwrap();
            } else {
                seq.remove_from_set(u, s).unwrap();
                bat.remove_from_set(u, s).unwrap();
            }
        }
        bat.commit();
        seq.check_invariants().unwrap();
        bat.check_invariants().unwrap();
        assert_eq!(seq.num_sets(), bat.num_sets());
        assert_eq!(seq.universe_size(), bat.universe_size());
        for s in 0..20u64 {
            let mut a: Vec<ElemId> = seq.members(s).unwrap().iter().copied().collect();
            let mut b: Vec<ElemId> = bat.members(s).unwrap().iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "set {s} memberships diverged");
        }
    }

    #[test]
    fn randomized_operations_maintain_invariants() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut c = DynamicSetCover::default();
        let num_sets: SetId = 30;
        let num_elems: ElemId = 60;
        for s in 0..num_sets {
            let members: Vec<ElemId> = (0..num_elems).filter(|_| rng.gen_bool(0.2)).collect();
            c.insert_set(s, members).unwrap();
        }
        let mut live_elems: Vec<ElemId> = Vec::new();
        for u in 0..num_elems {
            if c.insert_element(u).is_ok() {
                live_elems.push(u);
            }
        }
        c.greedy().unwrap();
        c.check_invariants().unwrap();

        for step in 0..400 {
            match rng.gen_range(0..4) {
                0 => {
                    // add membership
                    let u = rng.gen_range(0..num_elems);
                    let s = rng.gen_range(0..num_sets);
                    if c.has_set(s) {
                        c.add_to_set(u, s).unwrap();
                    }
                }
                1 => {
                    // remove membership
                    let u = rng.gen_range(0..num_elems);
                    let s = rng.gen_range(0..num_sets);
                    if c.has_set(s) {
                        let kept = c.remove_from_set(u, s).unwrap();
                        if !kept {
                            live_elems.retain(|&x| x != u);
                        }
                    }
                }
                2 => {
                    // toggle element
                    let u = rng.gen_range(0..num_elems);
                    if c.has_element(u) {
                        c.remove_element(u).unwrap();
                        live_elems.retain(|&x| x != u);
                    } else if c.insert_element(u).is_ok() {
                        live_elems.push(u);
                    }
                }
                _ => {
                    // re-add a set with random members
                    let s = rng.gen_range(0..num_sets);
                    if c.has_set(s) {
                        let dropped = c.remove_set(s).unwrap();
                        for d in dropped {
                            live_elems.retain(|&x| x != d);
                        }
                    } else {
                        let members: Vec<ElemId> =
                            (0..num_elems).filter(|_| rng.gen_bool(0.2)).collect();
                        c.insert_set(s, members).unwrap();
                    }
                }
            }
            if step % 20 == 0 {
                c.check_invariants()
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        c.check_invariants().unwrap();
    }
}
