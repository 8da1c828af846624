//! The semi-symbolic value lattice.
//!
//! A [`Val`] is either fully concrete or a tabulated function of exactly
//! **one** switch. The one-switch restriction is the load-bearing design
//! decision: it keeps every operation a small table zip, it keeps joins
//! decidable in one pass, and any computation that would entangle two
//! switches is forced through a materializing split first (see
//! [`crate::engine`]), after which each child sees the first switch as
//! concrete again.

use crate::config::{ConfigSpace, LeafSet};

/// A value as seen by the variational interpreter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Val {
    /// The same 64-bit value in every live configuration.
    Concrete(u64),
    /// A function of one switch: `vals` maps the switch's domain-value
    /// *indices* to 64-bit values. Invariants (maintained by
    /// [`Val::per_value`]): sorted by index, at least two entries, not
    /// all entries equal.
    PerValue {
        /// Index of the switch in the [`ConfigSpace`].
        sw: usize,
        /// `(value_index, value)` pairs, sorted by `value_index`.
        vals: Vec<(usize, u64)>,
    },
}

/// Why a binary operation could not stay variational: the operands
/// depend on different switches, so the context must split on `sw`
/// (materializing that switch to a concrete value per child) before the
/// instruction can retire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeedSplit {
    /// The switch to materialize.
    pub sw: usize,
}

impl Val {
    /// Builds a normalized value: a single entry, or all-equal entries,
    /// collapse to [`Val::Concrete`].
    pub fn per_value(sw: usize, mut vals: Vec<(usize, u64)>) -> Val {
        vals.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(!vals.is_empty(), "per_value needs at least one entry");
        if vals.iter().all(|&(_, v)| v == vals[0].1) {
            return Val::Concrete(vals[0].1);
        }
        Val::PerValue { sw, vals }
    }

    /// The concrete value, if configuration-independent.
    pub fn as_concrete(&self) -> Option<u64> {
        match self {
            Val::Concrete(v) => Some(*v),
            Val::PerValue { .. } => None,
        }
    }

    /// The switch this value depends on, if any.
    pub fn switch(&self) -> Option<usize> {
        match self {
            Val::Concrete(_) => None,
            Val::PerValue { sw, .. } => Some(*sw),
        }
    }

    /// Evaluates the value at one leaf configuration.
    pub fn at(&self, space: &ConfigSpace, leaf: usize) -> u64 {
        match self {
            Val::Concrete(v) => *v,
            Val::PerValue { sw, vals } => {
                let idx = space.digit(leaf, *sw);
                vals.iter()
                    .find(|&&(i, _)| i == idx)
                    .map(|&(_, v)| v)
                    .expect("leaf outside the value's live digits")
            }
        }
    }

    /// Applies a pure function pointwise.
    pub fn map(&self, f: impl Fn(u64) -> u64) -> Val {
        match self {
            Val::Concrete(v) => Val::Concrete(f(*v)),
            Val::PerValue { sw, vals } => {
                Val::per_value(*sw, vals.iter().map(|&(i, v)| (i, f(v))).collect())
            }
        }
    }

    /// Combines two values pointwise. Fails with [`NeedSplit`] when the
    /// operands depend on different switches (or on the same switch with
    /// mismatched live digits, which only arises transiently and is
    /// resolved the same way — by materializing).
    pub fn zip(a: &Val, b: &Val, f: impl Fn(u64, u64) -> u64) -> Result<Val, NeedSplit> {
        match (a, b) {
            (Val::Concrete(x), Val::Concrete(y)) => Ok(Val::Concrete(f(*x, *y))),
            (Val::PerValue { .. }, Val::Concrete(y)) => Ok(a.map(|x| f(x, *y))),
            (Val::Concrete(x), Val::PerValue { .. }) => Ok(b.map(|y| f(*x, y))),
            (Val::PerValue { sw: s1, vals: v1 }, Val::PerValue { sw: s2, vals: v2 }) => {
                if s1 != s2 || v1.len() != v2.len() {
                    return Err(NeedSplit { sw: *s1 });
                }
                let mut out = Vec::with_capacity(v1.len());
                for (&(i1, x), &(i2, y)) in v1.iter().zip(v2) {
                    if i1 != i2 {
                        return Err(NeedSplit { sw: *s1 });
                    }
                    out.push((i1, f(x, y)));
                }
                Ok(Val::per_value(*s1, out))
            }
        }
    }

    /// `true` if every table entry is live in `leaves`, so that
    /// [`Val::restrict`] would return the value unchanged.
    pub fn is_live_in(&self, space: &ConfigSpace, leaves: &LeafSet) -> bool {
        match self {
            Val::Concrete(_) => true,
            Val::PerValue { sw, vals } => vals
                .iter()
                .all(|&(i, _)| !space.mask(*sw, i).is_disjoint(leaves)),
        }
    }

    /// Restricts the value to the configurations in `leaves`, dropping
    /// dead table entries (and collapsing to concrete when one remains).
    pub fn restrict(&self, space: &ConfigSpace, leaves: &LeafSet) -> Val {
        match self {
            Val::PerValue { sw, vals } if !self.is_live_in(space, leaves) => {
                let mut kept = vals
                    .iter()
                    .filter(|&&(i, _)| !space.mask(*sw, i).is_disjoint(leaves))
                    .copied()
                    .peekable();
                let first = kept.next().expect("restriction emptied a value table");
                if kept.peek().is_none() {
                    // The common case of a split on `sw`: one value left.
                    return Val::Concrete(first.1);
                }
                Val::per_value(*sw, std::iter::once(first).chain(kept).collect())
            }
            _ => self.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchDomain;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            SwitchDomain {
                name: "a".into(),
                addr: 0x100,
                width: 4,
                signed: true,
                values: vec![0, 3, 7],
            },
            SwitchDomain {
                name: "b".into(),
                addr: 0x200,
                width: 4,
                signed: true,
                values: vec![0, 1],
            },
        ])
        .unwrap()
    }

    #[test]
    fn normalization_collapses_uniform_tables() {
        assert_eq!(
            Val::per_value(0, vec![(0, 5), (1, 5), (2, 5)]),
            Val::Concrete(5)
        );
        assert_eq!(Val::per_value(0, vec![(2, 9)]), Val::Concrete(9));
        assert!(matches!(
            Val::per_value(0, vec![(0, 1), (1, 2)]),
            Val::PerValue { .. }
        ));
    }

    #[test]
    fn at_reads_the_right_digit() {
        let s = space();
        let v = Val::per_value(0, vec![(0, 10), (1, 20), (2, 30)]);
        assert_eq!(v.at(&s, 0), 10); // a=0
        assert_eq!(v.at(&s, 1), 20); // a=3
        assert_eq!(v.at(&s, 5), 30); // a=7, b=1
        assert_eq!(Val::Concrete(7).at(&s, 4), 7);
    }

    #[test]
    fn zip_same_switch_is_pointwise() {
        let a = Val::per_value(0, vec![(0, 1), (1, 2), (2, 3)]);
        let b = Val::per_value(0, vec![(0, 10), (1, 20), (2, 30)]);
        let sum = Val::zip(&a, &b, |x, y| x + y).unwrap();
        assert_eq!(sum, Val::per_value(0, vec![(0, 11), (1, 22), (2, 33)]));
    }

    #[test]
    fn zip_mixed_switches_needs_split() {
        let a = Val::per_value(0, vec![(0, 1), (1, 2)]);
        let b = Val::per_value(1, vec![(0, 10), (1, 20)]);
        assert_eq!(Val::zip(&a, &b, |x, y| x + y), Err(NeedSplit { sw: 0 }));
    }

    #[test]
    fn restrict_drops_dead_digits() {
        let s = space();
        let v = Val::per_value(0, vec![(0, 10), (1, 20), (2, 30)]);
        // Only a=3 leaves live.
        let r = v.restrict(&s, s.mask(0, 1));
        assert_eq!(r, Val::Concrete(20));
        // a∈{0,7} live.
        let set = s.mask(0, 0).union(s.mask(0, 2));
        assert_eq!(
            v.restrict(&s, &set),
            Val::per_value(0, vec![(0, 10), (2, 30)])
        );
    }
}
