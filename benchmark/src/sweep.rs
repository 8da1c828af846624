//! `sweep`: a configuration-space check, as `mvcc vexec --configs all`
//! does it. One op stores a seeded assignment into the switches, then
//! recovers the configuration space, runs `main` under every leaf in
//! one variational pass, replays every leaf through
//! `enumerate_check` (a fresh boot per leaf), and compares every leaf,
//! plus direct calls in the stored assignment and its complement, with
//! the closed-form value computed in Rust.

use crate::trace::Tracer;
use crate::{mix, Counters, Scale, Workload, BACKEND};
use multiverse::mvvx::{ConfigSpace, VexecReport};
use multiverse::{enumerate_check_with, BuildError, Program, World};

/// A booted, uncommitted compile-cost kernel.
pub struct Sweep {
    program: Program,
    w: World,
    funcs: usize,
    switches: usize,
    domain: usize,
    seed: u64,
    steps: u64,
    splits: u64,
    leaves: u64,
}

/// Boots a world on the native backend, as every leaf replay does.
fn boot_native(program: &Program) -> Result<World, BuildError> {
    let mut w = program.boot();
    w.set_backend(BACKEND)?;
    Ok(w)
}

/// `main`'s value under an assignment: function `f` returns
/// `f + Σ_{s_k≠0} (f+1)<<k`, and `main` sums every function.
pub fn closed_form(funcs: usize, assignment: &[(usize, i64)]) -> u64 {
    (0..funcs as u64)
        .map(|f| {
            assignment
                .iter()
                .filter(|&&(_, v)| v != 0)
                .fold(f, |acc, &(k, _)| acc + ((f + 1) << k))
        })
        .sum()
}

impl Sweep {
    /// Boots `program` on the native backend; no commit, since every
    /// leaf runs the generic bodies.
    pub fn boot(program: Program, scale: &Scale, seed: u64) -> Result<Sweep, String> {
        let w = boot_native(&program).map_err(|e| format!("sweep setup: {e}"))?;
        let (funcs, switches, domain) = scale.sweep;
        Ok(Sweep {
            program,
            w,
            funcs,
            switches,
            domain,
            seed,
            steps: 0,
            splits: 0,
            leaves: 0,
        })
    }
}

/// The assignment op `op` stores: `(switch index, value)` for every
/// switch, drawn from the seed.
pub fn assignment(seed: u64, op: u64, switches: usize, domain: usize) -> Vec<(usize, i64)> {
    (0..switches)
        .map(|k| (k, (mix(seed, op, k as u64) % domain as u64) as i64))
        .collect()
}

/// The switch index `k` of a switch named `s<k>`.
fn switch_index(name: &str) -> Result<usize, String> {
    name.strip_prefix('s')
        .and_then(|k| k.parse().ok())
        .ok_or_else(|| format!("unexpected switch `{name}`"))
}

/// Every leaf is present and returned its closed-form value.
fn check_leaves(
    funcs: usize,
    want_leaves: usize,
    space: &ConfigSpace,
    report: &VexecReport,
) -> Result<(), String> {
    if report.leaves.len() != want_leaves || space.leaf_count() != want_leaves {
        return Err(format!(
            "{} leaves in a space of {}, expected {want_leaves}",
            report.leaves.len(),
            space.leaf_count()
        ));
    }
    for leaf in &report.leaves {
        let assignment = space
            .assignment(leaf.leaf)
            .iter()
            .map(|(name, v)| Ok((switch_index(name)?, *v)))
            .collect::<Result<Vec<_>, String>>()?;
        let want = closed_form(funcs, &assignment);
        if leaf.exit != want {
            return Err(format!(
                "leaf {}: vexec {} != closed form {want}",
                space.label(leaf.leaf),
                leaf.exit
            ));
        }
    }
    Ok(())
}

impl Sweep {
    fn store(&mut self, assignment: &[(usize, i64)], tr: &mut Tracer) -> Result<(), String> {
        for &(k, v) in assignment {
            tr.span("write_switch", "mvrt", || self.w.set(&format!("s{k}"), v))
                .map_err(|e| format!("set s{k}: {e}"))?;
        }
        Ok(())
    }
}

impl Workload for Sweep {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<u64, String> {
        let stored = assignment(self.seed, i, self.switches, self.domain);
        self.store(&stored, tr)?;
        let space = tr
            .span("config_space", "core", || self.w.config_space())
            .map_err(|e| format!("config_space: {e}"))?;
        let report = tr
            .span("vexec", "mvvx", || self.w.vexec_in(&space, "main", &[]))
            .map_err(|e| format!("vexec: {e}"))?;
        let program = &self.program;
        tr.span("enumerate_check", "core", || {
            enumerate_check_with(|| boot_native(program), &space, "main", &[], &report)
        })
        .map_err(|e| format!("enumerate_check: {e}"))?;
        self.steps += report.stats.steps;
        self.splits += report.stats.splits;
        self.leaves += report.leaves.len() as u64;

        // Direct calls in the stored assignment and in its complement:
        // together they set every switch once, so the op's guest cycles
        // hardly depend on the seed.
        let top = self.domain as i64 - 1;
        let complement: Vec<(usize, i64)> = stored.iter().map(|&(k, v)| (k, top - v)).collect();
        let mut cycles = 0;
        let mut direct = Vec::new();
        for assignment in [stored, complement] {
            if !direct.is_empty() {
                self.store(&assignment, tr)?;
            }
            let c0 = self.w.cycles();
            let got = tr
                .span("call", "mvvm", || self.w.call("main", &[]))
                .map_err(|e| format!("main: {e}"))?;
            cycles += self.w.cycles() - c0;
            direct.push((got, assignment));
        }

        let want_leaves = self.domain.pow(self.switches as u32);
        tr.span("reference", "bench", || {
            check_leaves(self.funcs, want_leaves, &space, &report)?;
            for (got, assignment) in &direct {
                let want = closed_form(self.funcs, assignment);
                if *got != want {
                    return Err(format!("direct main {got} != closed form {want}"));
                }
            }
            Ok(cycles)
        })
    }

    fn counters(&self) -> Counters {
        let mut c = crate::run::machine_counters(&self.w.machine);
        c.insert("vexec_steps", self.steps);
        c.insert("vexec_splits", self.splits);
        c.insert("vexec_leaves", self.leaves);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_hand_sums() {
        // Two functions, no switch set: f0 = 0, f1 = 1.
        assert_eq!(closed_form(2, &[(0, 0), (1, 0)]), 1);
        // s1 set: f0 += 1<<1, f1 += 2<<1.
        assert_eq!(closed_form(2, &[(0, 0), (1, 1)]), 1 + 2 + 4);
    }
}
