//! `storm`: the mvd control plane under SMP. One op is one burst:
//! submit seeded flips through the commit daemon, step the scheduler,
//! then step the daemon until idle. Every switch must then hold the
//! last value submitted for it, and every worker that finishes must
//! return exactly its iteration count; finished workers are respawned
//! so each burst lands on live vCPUs.

use crate::trace::Tracer;
use crate::{mix, Counters, Scale, Workload, BACKEND};
use multiverse::mvrt::{CommitDaemon, CommitStrategy, Lane, MvdConfig};
use multiverse::mvvm::VcpuState;
use multiverse::{BuildError, Program, SmpWorld};
use mv_workloads::commit_storm::SWITCHES;

/// Worker vCPUs.
pub const VCPUS: usize = 2;

/// Scheduler seed, fixed so the interleaving depends only on the flips.
const SCHED_SEED: u64 = 0x5EED_5707;

/// Scheduler rounds stepped between submitting a burst and draining it.
const ROUNDS_PER_BURST: usize = 4;

/// Round budget for running the workers to completion after the run.
const MAX_DRAIN_ROUNDS: u64 = 10_000_000;

/// The flips of op `op`: `(switch index, value)` pairs drawn from the
/// seed.
pub fn burst(seed: u64, op: u64, flips: usize) -> Vec<(usize, i64)> {
    (0..flips as u64)
        .map(|j| {
            let x = mix(seed, op, j);
            ((x % SWITCHES.len() as u64) as usize, ((x >> 32) & 1) as i64)
        })
        .collect()
}

/// A booted commit-storm kernel with live workers and a daemon.
pub struct Storm {
    w: SmpWorld,
    daemon: CommitDaemon,
    seed: u64,
    flips: usize,
    iters: u64,
    /// Last value submitted per switch.
    last: [Option<i64>; SWITCHES.len()],
    quiesce_cycles: u64,
}

impl Storm {
    /// Boots `program` on [`VCPUS`] vCPUs with the native backend and a
    /// fixed scheduler seed, commits the initial state and spawns the
    /// workers.
    pub fn boot(program: &Program, scale: &Scale, seed: u64) -> Result<Storm, String> {
        let e = |e: BuildError| format!("storm setup: {e}");
        let mut w = program.boot_smp(VCPUS);
        w.smp.set_seed(SCHED_SEED);
        w.set_backend(BACKEND).map_err(e)?;
        w.commit_quiesced(CommitStrategy::StopMachine).map_err(e)?;
        w.spawn_all("worker", &[scale.storm_iters]).map_err(e)?;
        let daemon = CommitDaemon::new(MvdConfig {
            capacity: 2 * scale.storm_flips,
            strategy: CommitStrategy::StopMachine,
            ..MvdConfig::default()
        });
        Ok(Storm {
            w,
            daemon,
            seed,
            flips: scale.storm_flips,
            iters: scale.storm_iters,
            last: [None; SWITCHES.len()],
            quiesce_cycles: 0,
        })
    }

    /// Every daemon request committed and every switch holds the last
    /// value submitted for it.
    fn check(&mut self) -> Result<(), String> {
        for done in self.daemon.take_completions() {
            if !done.outcome.is_committed() {
                return Err(format!("{:?} ended {:?}", done.op, done.outcome));
            }
        }
        for (name, want) in SWITCHES.iter().zip(self.last) {
            let Some(want) = want else { continue };
            let got = self.w.get(name).map_err(|e| format!("read {name}: {e}"))?;
            if got != want {
                return Err(format!("{name} reads {got}, last submitted {want}"));
            }
        }
        Ok(())
    }

    /// Checks finished workers and respawns them; faults fail the op.
    fn tend_workers(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for v in 0..VCPUS {
            match self.w.smp.state(v).clone() {
                VcpuState::Done { ret } => {
                    if ret != self.iters {
                        return Err(format!(
                            "worker on vCPU {v} returned {ret}, expected {}",
                            self.iters
                        ));
                    }
                    tr.span("spawn", "mvvm", || self.w.spawn(v, "worker", &[self.iters]))
                        .map_err(|e| format!("respawn vCPU {v}: {e}"))?;
                }
                VcpuState::Faulted(f) => return Err(format!("vCPU {v} faulted: {f}")),
                _ => {}
            }
        }
        Ok(())
    }
}

impl Workload for Storm {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Result<u64, String> {
        let c0 = self.w.smp.max_cycles();
        for (si, value) in burst(self.seed, i, self.flips) {
            tr.span("submit", "mvrt", || {
                self.w
                    .submit_flip(&mut self.daemon, SWITCHES[si], value, Lane::Normal)
            })
            .map_err(|e| format!("submit: {e}"))?;
            self.last[si] = Some(value);
        }
        for _ in 0..ROUNDS_PER_BURST {
            if self.w.smp.any_live() {
                tr.span("step_round", "mvvm", || self.w.smp.step_round());
            }
        }
        let q0 = self.w.smp.max_cycles();
        while tr
            .span("step", "mvrt", || self.w.step_daemon(&mut self.daemon))
            .map_err(|e| format!("daemon step: {e}"))?
        {}
        let c1 = self.w.smp.max_cycles();
        self.quiesce_cycles += c1 - q0;

        tr.span("reference", "bench", || self.check())?;
        self.tend_workers(tr)?;
        Ok(c1 - c0)
    }

    fn finish(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let rets = tr
            .span("run_until_done", "mvvm", || self.w.run(MAX_DRAIN_ROUNDS))
            .map_err(|e| format!("draining workers: {e}"))?;
        match rets.iter().find(|&&r| r != self.iters) {
            Some(r) => Err(format!("a worker returned {r}, expected {}", self.iters)),
            None => Ok(()),
        }
    }

    fn counters(&self) -> Counters {
        let mut c = crate::run::machine_counters(&self.w.smp.machine);
        c.extend(crate::run::runtime_counters(self.w.rt.as_ref()));
        let b = self.w.smp.block_stats();
        c.insert("guest_insns", self.w.total_stats().instructions);
        c.insert("block_hits", b.hits);
        c.insert("block_misses", b.misses);
        let s = self.daemon.stats();
        c.insert("mvd_submitted", s.submitted);
        c.insert("mvd_committed", s.committed);
        c.insert("quiesce_cycles", self.quiesce_cycles);
        c
    }
}
