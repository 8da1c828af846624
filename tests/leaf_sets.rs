//! `LeafSet` and `ConfigSpace` against a naive per-leaf model.
//!
//! The engine computes its leaf-set operations a word at a time:
//! projections shift whole masks, iteration walks set bits, and spaces
//! of up to 64 leaves keep their one word inline. The model here spells
//! every operation out leaf by leaf, with the mixed-radix digits
//! computed from the domain sizes directly. The random spaces span one
//! and several words and use domain sizes (3, 5, 7) that give strides
//! which are not powers of two.

use mvvx::{ConfigSpace, LeafSet, SwitchDomain};
use proptest::prelude::*;

/// A space with one switch per entry of `sizes`, domain `0..size`.
fn space(sizes: &[usize]) -> ConfigSpace {
    ConfigSpace::new(
        sizes
            .iter()
            .enumerate()
            .map(|(k, &n)| SwitchDomain {
                name: format!("s{k}"),
                addr: 0x1000 + 8 * k as u64,
                width: 4,
                signed: true,
                values: (0..n as i64).collect(),
            })
            .collect(),
    )
    .unwrap()
}

/// Digit `sw` of `leaf`, from the domain sizes alone.
fn digit(sizes: &[usize], leaf: usize, sw: usize) -> usize {
    let stride: usize = sizes[..sw].iter().product();
    leaf / stride % sizes[sw]
}

/// A pseudo-random membership vector over `n` leaves; `density` in
/// 0..=4 picks roughly 0, ¼, ½, ¾ or all of them.
fn model_set(n: usize, seed: u64, density: u64) -> Vec<bool> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 4 < density
        })
        .collect()
}

fn leaf_set(model: &[bool]) -> LeafSet {
    let mut s = LeafSet::empty(model.len());
    for (i, _) in model.iter().enumerate().filter(|(_, m)| **m) {
        s.insert(i);
    }
    s
}

fn members(model: &[bool]) -> Vec<usize> {
    (0..model.len()).filter(|&i| model[i]).collect()
}

/// Every operation of `LeafSet` and `ConfigSpace` on sets `a` and `b`
/// of the space `sizes`, checked against the model.
fn check(sizes: &[usize], a: &[bool], b: &[bool]) -> Result<(), TestCaseError> {
    let sp = space(sizes);
    let n = sp.leaf_count();
    prop_assert_eq!(n, sizes.iter().product::<usize>());
    let (sa, sb) = (leaf_set(a), leaf_set(b));
    prop_assert_eq!(sa.capacity(), n);
    prop_assert_eq!(sa.iter().collect::<Vec<_>>(), members(a));
    prop_assert_eq!(sa.first(), members(a).first().copied());
    prop_assert_eq!(sa.count(), members(a).len());
    prop_assert_eq!(sa.is_empty(), members(a).is_empty());
    for (i, &member) in a.iter().enumerate() {
        prop_assert_eq!(sa.contains(i), member);
    }
    prop_assert!(!sa.contains(n));
    let union: Vec<bool> = (0..n).map(|i| a[i] || b[i]).collect();
    let inter: Vec<bool> = (0..n).map(|i| a[i] && b[i]).collect();
    prop_assert_eq!(sa.union(&sb), leaf_set(&union));
    prop_assert_eq!(sa.intersect(&sb), leaf_set(&inter));
    prop_assert_eq!(sa.is_disjoint(&sb), !inter.contains(&true));
    prop_assert_eq!(LeafSet::full(n), leaf_set(&vec![true; n]));
    for sw in 0..sizes.len() {
        let stride: usize = sizes[..sw].iter().product();
        let mut projected = vec![false; n];
        for leaf in members(a) {
            projected[leaf - digit(sizes, leaf, sw) * stride] = true;
        }
        prop_assert_eq!(
            sp.project_digit0(&sa, sw),
            leaf_set(&projected),
            "project_digit0 over switch {} of {:?}",
            sw,
            sizes
        );
        let live: Vec<usize> = (0..sizes[sw])
            .filter(|&d| members(a).iter().any(|&leaf| digit(sizes, leaf, sw) == d))
            .collect();
        prop_assert_eq!(sp.live_digits(&sa, sw).collect::<Vec<_>>(), live);
        for d in 0..sizes[sw] {
            let mask: Vec<bool> = (0..n).map(|leaf| digit(sizes, leaf, sw) == d).collect();
            prop_assert_eq!(sp.mask(sw, d), &leaf_set(&mask));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Random spaces of one to five switches with two to seven values
    /// each: from a few leaves up to several words.
    #[test]
    fn random_spaces_match_the_model(
        sizes in proptest::collection::vec(2usize..8, 1..6),
        seeds in (any::<u64>(), any::<u64>()),
        density in (0u64..5, 0u64..5),
    ) {
        let n: usize = sizes.iter().product();
        check(&sizes, &model_set(n, seeds.0, density.0), &model_set(n, seeds.1, density.1))?;
    }

    /// Fixed multi-word shapes: 3^5 = 243 leaves (four words) and
    /// 2·3·5·7 = 210 leaves in both digit orders, whose strides (2, 6,
    /// 30 and 7, 35, 105) are not powers of two and cut across words.
    #[test]
    fn multi_word_spaces_match_the_model(
        seeds in (any::<u64>(), any::<u64>()),
        density in (0u64..5, 0u64..5),
    ) {
        for sizes in [vec![3, 3, 3, 3, 3], vec![2, 3, 5, 7], vec![7, 5, 3, 2]] {
            let n: usize = sizes.iter().product();
            check(&sizes, &model_set(n, seeds.0, density.0), &model_set(n, seeds.1, density.1))?;
        }
    }
}

#[test]
fn word_boundaries() {
    for n in [1, 63, 64, 65, 127, 128, 129] {
        let full = LeafSet::full(n);
        assert_eq!(full.count(), n, "full set over {n}");
        assert_eq!(full.iter().last(), Some(n - 1));
        let mut last = LeafSet::empty(n);
        last.insert(n - 1);
        assert_eq!(last.first(), Some(n - 1));
        assert!(!last.is_disjoint(&full));
    }
}
