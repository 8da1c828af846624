//! `reconfig`: the §6.1 kernel-scale commit. One op is one whole-image
//! reconfiguration, cycling `feature=1`+commit, `feature=0`+commit,
//! revert; it then calls a seeded `callerK`, which must print exactly
//! eight bytes after the first state and none after the other two.

use crate::trace::Tracer;
use crate::{mix, Counters, Scale, Workload, BACKEND};
use multiverse::mvrt::CommitReport;
use multiverse::{BuildError, Program, World};

/// Call sites per generated caller (see `mv_bench::many_callsites_src`).
const SITES_PER_CALLER: usize = 8;

/// A booted many-call-sites program.
pub struct Reconfig {
    w: World,
    /// Callers with a full set of sites; an op calls one of them.
    callers: Vec<String>,
    seed: u64,
    sites_touched: u64,
}

impl Reconfig {
    /// Boots `program` on the native backend and commits the initial
    /// `feature = 0` state.
    pub fn boot(program: &Program, scale: &Scale, seed: u64) -> Result<Reconfig, String> {
        let e = |e: BuildError| format!("reconfig setup: {e}");
        let mut w = program.boot();
        w.set_backend(BACKEND).map_err(e)?;
        w.set("feature", 0).map_err(e)?;
        w.commit().map_err(e)?;
        let full = scale.reconfig_sites / SITES_PER_CALLER;
        Ok(Reconfig {
            w,
            callers: (0..full).map(|k| format!("caller{k}")).collect(),
            seed,
            sites_touched: 0,
        })
    }

    fn flip(&mut self, value: i64, tr: &mut Tracer) -> Result<CommitReport, BuildError> {
        tr.span("write_switch", "mvrt", || self.w.set("feature", value))?;
        tr.span("commit", "mvrt", || self.w.commit())
    }
}

impl Workload for Reconfig {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<u64, String> {
        let phase = i % 3;
        let c0 = self.w.cycles();
        let report = match phase {
            0 => self.flip(1, tr),
            1 => self.flip(0, tr),
            _ => tr.span("revert", "mvrt", || self.w.revert()),
        }
        .map_err(|e| format!("reconfigure: {e}"))?;
        self.sites_touched += report.sites_touched as u64;
        let k = (mix(self.seed, i, 0) % self.callers.len() as u64) as usize;
        tr.span("call", "mvvm", || self.w.call(&self.callers[k], &[]))
            .map_err(|e| format!("{}: {e}", self.callers[k]))?;
        let cycles = self.w.cycles() - c0;
        let out = self.w.machine.take_output();
        let want: &[u8] = if phase == 0 {
            &[1; SITES_PER_CALLER]
        } else {
            &[]
        };
        if out != want {
            return Err(format!(
                "{} printed {out:?} in phase {phase}, expected {want:?}",
                self.callers[k]
            ));
        }
        Ok(cycles)
    }

    fn counters(&self) -> Counters {
        let mut c = crate::run::machine_counters(&self.w.machine);
        c.extend(crate::run::runtime_counters(self.w.rt.as_ref()));
        c.insert("sites_touched", self.sites_touched);
        c
    }
}
