//! Property-based tests: the stable solution survives arbitrary operation
//! sequences and stays within the Theorem-1 approximation bound.

use proptest::prelude::*;
use rms_setcover::{DynamicSetCover, ElemId, LevelBase, SetId, SpillSet};
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Op {
    AddMember(ElemId, SetId),
    RemoveMember(ElemId, SetId),
    ToggleElement(ElemId),
    ToggleSet(SetId, Vec<ElemId>),
}

const SETS: SetId = 14;
const ELEMS: ElemId = 28;

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..ELEMS), (0..SETS)).prop_map(|(u, s)| Op::AddMember(u, s)),
            ((0..ELEMS), (0..SETS)).prop_map(|(u, s)| Op::RemoveMember(u, s)),
            (0..ELEMS).prop_map(Op::ToggleElement),
            ((0..SETS), prop::collection::vec(0..ELEMS, 0..10))
                .prop_map(|(s, m)| Op::ToggleSet(s, m)),
        ],
        0..len,
    )
}

/// Brute-force reference: size of the greedy cover of the same system,
/// used only as an OPT upper bound in the approximation check.
fn greedy_cover_size(
    sets: &std::collections::HashMap<SetId, HashSet<ElemId>>,
    universe: &HashSet<ElemId>,
) -> usize {
    let mut uncovered = universe.clone();
    let mut size = 0;
    while !uncovered.is_empty() {
        let best = sets
            .iter()
            .max_by_key(|(_, m)| m.intersection(&uncovered).count())
            .map(|(s, _)| *s)
            .unwrap();
        let gain = sets[&best].intersection(&uncovered).count();
        if gain == 0 {
            break;
        }
        uncovered = uncovered.difference(&sets[&best]).copied().collect();
        size += 1;
    }
    size
}

/// Applies a script without a shadow model, skipping ops on absent sets
/// and ignoring element inserts no set can cover.
fn apply_loose(c: &mut DynamicSetCover, ops: Vec<Op>) {
    for op in ops {
        match op {
            Op::AddMember(u, s) if c.has_set(s) => {
                c.add_to_set(u, s).unwrap();
            }
            Op::RemoveMember(u, s) if c.has_set(s) => {
                let _ = c.remove_from_set(u, s).unwrap();
            }
            Op::ToggleElement(u) => {
                if c.has_element(u) {
                    c.remove_element(u).unwrap();
                } else {
                    let _ = c.insert_element(u);
                }
            }
            Op::ToggleSet(s, members) => {
                if c.has_set(s) {
                    let _ = c.remove_set(s).unwrap();
                } else {
                    c.insert_set(s, members).unwrap();
                }
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_after_random_ops(ops in arb_ops(80), base in 0usize..3) {
        let base = [LevelBase::TWO, LevelBase::new(1.5), LevelBase::new(3.0)][base];
        let mut c = DynamicSetCover::new(base);
        // Shadow model of membership and universe.
        let mut sets: std::collections::HashMap<SetId, HashSet<ElemId>> =
            Default::default();
        let mut universe: HashSet<ElemId> = Default::default();

        // Seed with a full set so early element inserts succeed.
        c.insert_set(999, 0..ELEMS).unwrap();
        sets.insert(999, (0..ELEMS).collect());

        for op in ops {
            match op {
                Op::AddMember(u, s) => {
                    if c.has_set(s) {
                        c.add_to_set(u, s).unwrap();
                        sets.get_mut(&s).unwrap().insert(u);
                    }
                }
                Op::RemoveMember(u, s) => {
                    if c.has_set(s) {
                        let kept = c.remove_from_set(u, s).unwrap();
                        sets.get_mut(&s).unwrap().remove(&u);
                        if !kept {
                            universe.remove(&u);
                        }
                    }
                }
                Op::ToggleElement(u) => {
                    if c.has_element(u) {
                        c.remove_element(u).unwrap();
                        universe.remove(&u);
                    } else if c.insert_element(u).is_ok() {
                        universe.insert(u);
                    }
                }
                Op::ToggleSet(s, members) => {
                    if c.has_set(s) {
                        for d in c.remove_set(s).unwrap() {
                            universe.remove(&d);
                        }
                        sets.remove(&s);
                    } else {
                        c.insert_set(s, members.iter().copied()).unwrap();
                        sets.insert(s, members.into_iter().collect());
                    }
                }
            }
        }
        c.check_invariants().map_err(TestCaseError::fail)?;

        // Shadow model agreement.
        prop_assert_eq!(c.universe_size(), universe.len());
        prop_assert_eq!(c.num_sets(), sets.len());

        // Theorem 1: |C| ≤ (2 + 2 log_b m) · OPT, with greedy size as an
        // upper bound for OPT's (1 + ln m) blow-up — use the crude bound
        // |C| ≤ (2 + 2 log_b m) · greedy_size, which stability implies.
        if !universe.is_empty() {
            let m = universe.len() as f64;
            let g = greedy_cover_size(&sets, &universe) as f64;
            let bound = (2.0 + 2.0 * m.log(base.get())) * g;
            prop_assert!(
                (c.solution_size() as f64) <= bound + 1e-9,
                "|C| = {} > bound {bound}",
                c.solution_size()
            );
        } else {
            prop_assert_eq!(c.solution_size(), 0);
        }
    }

    /// greedy() after any operation sequence also yields a valid stable
    /// cover (FD-RMS initialisation installs one on the searched `m`).
    #[test]
    fn greedy_restores_stability(ops in arb_ops(40)) {
        let mut c = DynamicSetCover::default();
        c.insert_set(999, 0..ELEMS).unwrap();
        apply_loose(&mut c, ops);
        c.greedy().unwrap();
        c.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The picks FD-RMS initialisation sizes its binary-search probes with
    /// are exactly the sets greedy() installs on the same universe, and
    /// the two fail on the same inputs. No full set is seeded, so some
    /// prefixes are uncoverable.
    #[test]
    fn greedy_picks_match_installed_greedy(ops in arb_ops(40)) {
        let mut c = DynamicSetCover::default();
        apply_loose(&mut c, ops);
        for m in 0..=ELEMS {
            let picks = c.greedy_picks(0..m);
            let mut installed = c.clone();
            installed.reset_universe(0..m);
            match installed.greedy() {
                Ok(()) => {
                    let mut want: Vec<SetId> = installed.solution().collect();
                    want.sort_unstable();
                    let mut got = picks.map_err(|e| TestCaseError::fail(e.to_string()))?;
                    got.sort_unstable();
                    prop_assert_eq!(got, want);
                    installed.check_invariants().map_err(TestCaseError::fail)?;
                }
                Err(e) => {
                    prop_assert_eq!(picks, Err(e));
                    prop_assert_eq!(installed.solution_size(), 0);
                }
            }
        }
    }

    /// The small-set row representation behaves exactly like a `HashSet`
    /// across the inline→spill boundary: with inline capacity 4 and keys
    /// drawn from a small domain, random insert/remove/clear scripts
    /// repeatedly cross N in both directions.
    #[test]
    fn spill_set_matches_hashset_model(
        ops in prop::collection::vec((0u8..3, 0u64..12), 0..200),
    ) {
        let mut fast: SpillSet<u64, 4> = SpillSet::default();
        let mut model: HashSet<u64> = HashSet::new();
        for (kind, key) in ops {
            match kind {
                0 => prop_assert_eq!(fast.insert(key), model.insert(key)),
                1 => prop_assert_eq!(fast.remove(&key), model.remove(&key)),
                _ => {
                    // Clear rarely relative to insert/remove so the set
                    // actually grows past the inline capacity.
                    if key == 0 {
                        fast.clear();
                        model.clear();
                    }
                }
            }
            prop_assert_eq!(fast.contains(&key), model.contains(&key));
            prop_assert_eq!(fast.len(), model.len());
            prop_assert_eq!(fast.is_empty(), model.is_empty());
        }
        let mut got: Vec<u64> = fast.iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<u64> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
