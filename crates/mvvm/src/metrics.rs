//! VM-level telemetry: mirrors the machine's monotone execution
//! counters into an [`mvmetrics::Registry`].
//!
//! Recording is pull-based: the embedder calls [`VmMetrics::record_machine`]
//! or [`VmMetrics::record_smp`] at sync points (end of a run, after a
//! scheduler round) and the current absolute counter values are stored
//! with `store_max`. Nothing is added to the per-instruction hot path,
//! and because the registry mirrors the sources rather than keeping a
//! parallel increment stream, the two can never disagree.

use crate::block::BlockCacheStats;
use crate::machine::Machine;
use crate::native::NativeStats;
use crate::smp::SmpMachine;
use mvmetrics::{Counter, Registry};

/// Registered handles for the `mv_vm_*` metric family.
pub struct VmMetrics {
    registry: Registry,
    instructions: Counter,
    cycles: Counter,
    icache_shootdowns: Counter,
    trap_hits: Counter,
    rounds: Counter,
    stall_cycles: Counter,
    block_hits: Counter,
    block_misses: Counter,
    block_evictions: Counter,
    block_promotions: Counter,
    native_regions: Counter,
    native_blocks: Counter,
    native_runs: Counter,
    native_insns: Counter,
    native_invalidations: Counter,
    /// `mv_vm_native_bypass_total{reason}` for `trace`, `profile`, `smp`.
    native_bypass: [Counter; 3],
    /// Per-vCPU cycle counters, registered lazily on first SMP sync.
    vcpu_cycles: Vec<Counter>,
}

impl VmMetrics {
    /// Registers the VM metric family in `registry`.
    pub fn new(registry: &Registry) -> VmMetrics {
        VmMetrics {
            registry: registry.clone(),
            instructions: registry
                .counter("mv_vm_instructions_total", "Guest instructions retired"),
            cycles: registry.counter("mv_vm_cycles_total", "Guest cycles consumed"),
            icache_shootdowns: registry.counter(
                "mv_vm_icache_shootdowns_total",
                "Cross-vCPU instruction cache shootdowns",
            ),
            trap_hits: registry.counter(
                "mv_vm_trap_hits_total",
                "Breakpoint trap-byte hits observed by vCPUs",
            ),
            rounds: registry.counter("mv_vm_sched_rounds_total", "SMP scheduler rounds"),
            stall_cycles: registry.counter(
                "mv_vm_stall_cycles_total",
                "Cycles vCPUs spent parked or trapped during quiesce",
            ),
            block_hits: registry.counter(
                "mv_vm_block_hits_total",
                "Decoded-block cache hits (block entries replayed)",
            ),
            block_misses: registry.counter(
                "mv_vm_block_misses_total",
                "Decoded-block cache misses (blocks recorded)",
            ),
            block_evictions: registry.counter(
                "mv_vm_block_evictions_total",
                "Decoded blocks evicted by patches or shootdowns",
            ),
            block_promotions: registry.counter(
                "mv_vm_block_superblock_promotions_total",
                "Hot blocks re-recorded as fused superblocks",
            ),
            native_regions: registry.counter(
                "mv_vm_native_regions_total",
                "Function regions lowered for the tiered engine",
            ),
            native_blocks: registry.counter(
                "mv_vm_native_blocks_total",
                "Blocks lowered across all native regions",
            ),
            native_runs: registry.counter(
                "mv_vm_native_runs_total",
                "Native block executions (one per block entered)",
            ),
            native_insns: registry.counter(
                "mv_vm_native_insns_total",
                "Guest instructions retired through native segments",
            ),
            native_invalidations: registry.counter(
                "mv_vm_native_invalidations_total",
                "Native regions dropped after a code page changed",
            ),
            native_bypass: ["trace", "profile", "smp"].map(|reason| {
                registry.counter_with(
                    "mv_vm_native_bypass_total",
                    "Tiered steps that left registered native regions unused, by reason",
                    &[("reason", reason)],
                )
            }),
            vcpu_cycles: Vec::new(),
        }
    }

    fn record_blocks(&mut self, b: BlockCacheStats) {
        self.block_hits.store_max(b.hits);
        self.block_misses.store_max(b.misses);
        self.block_evictions.store_max(b.evictions);
        self.block_promotions.store_max(b.promotions);
    }

    fn record_native(&mut self, n: NativeStats) {
        self.native_regions.store_max(n.regions);
        self.native_blocks.store_max(n.blocks);
        self.native_runs.store_max(n.runs);
        self.native_insns.store_max(n.insns);
        self.native_invalidations.store_max(n.invalidations);
        let [trace, profile, smp] = &self.native_bypass;
        trace.store_max(n.bypass_trace);
        profile.store_max(n.bypass_profile);
        smp.store_max(n.bypass_smp);
    }

    /// Syncs counters from a uniprocessor machine.
    pub fn record_machine(&mut self, m: &Machine) {
        self.instructions.store_max(m.stats.instructions);
        self.cycles.store_max(m.cycles());
        self.record_blocks(m.block_stats());
        self.record_native(m.native_stats());
    }

    /// Syncs counters from an SMP machine: aggregate stats plus a
    /// per-vCPU `mv_vm_vcpu_cycles_total{vcpu="N"}` series.
    pub fn record_smp(&mut self, smp: &SmpMachine) {
        // A disabled registry must see no activity at all — including
        // the lazy registration of new per-vCPU series.
        if !self.registry.enabled() {
            return;
        }
        let total = smp.total_stats();
        self.instructions.store_max(total.instructions);
        self.cycles
            .store_max((0..smp.vcpus()).map(|i| smp.cycles_of(i)).sum());
        self.icache_shootdowns.store_max(smp.shootdowns());
        self.trap_hits.store_max(smp.trap_hits());
        self.rounds.store_max(smp.rounds());
        self.stall_cycles.store_max(smp.total_stall_cycles());
        self.record_blocks(smp.block_stats());
        self.record_native(smp.machine.native_stats());
        while self.vcpu_cycles.len() < smp.vcpus() {
            let i = self.vcpu_cycles.len();
            self.vcpu_cycles.push(self.registry.counter_with(
                "mv_vm_vcpu_cycles_total",
                "Guest cycles per vCPU",
                &[("vcpu", &i.to_string())],
            ));
        }
        for (i, c) in self.vcpu_cycles.iter().enumerate() {
            c.store_max(smp.cycles_of(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvasm::Reg;
    use mvobj::{link, Layout, Object, SectionKind, Symbol};

    fn run_tiny() -> Machine {
        let mut a = mvasm::Assembler::new();
        a.mov_ri(Reg::R0, 7);
        a.emit(mvasm::Insn::Halt);
        let blob = a.finish().unwrap();
        let mut o = Object::new("t");
        o.append(mvobj::SEC_TEXT, SectionKind::Text, &blob.bytes);
        o.define(Symbol::func(
            "main",
            mvobj::SEC_TEXT,
            0,
            blob.bytes.len() as u64,
        ));
        let exe = link(&[o], &Layout::default()).unwrap();
        let mut m = Machine::boot(&exe);
        m.run_entry(&exe).unwrap();
        m
    }

    #[test]
    fn machine_sync_matches_stats() {
        let m = run_tiny();
        let r = Registry::new();
        let mut vm = VmMetrics::new(&r);
        vm.record_machine(&m);
        vm.record_machine(&m); // idempotent
        let snap = r.snapshot();
        let instr = snap
            .iter()
            .find(|s| s.name == "mv_vm_instructions_total")
            .unwrap();
        match instr.value {
            mvmetrics::SampleValue::Counter(v) => assert_eq!(v, m.stats.instructions),
            _ => unreachable!(),
        }
        assert!(m.stats.instructions > 0);
    }

    /// A 20-iteration counted loop, then `halt`.
    fn loop_exe() -> mvobj::Executable {
        let mut a = mvasm::Assembler::new();
        a.mov_ri(Reg::R1, 0);
        a.label("loop");
        a.emit(mvasm::Insn::AluRI {
            op: mvasm::AluOp::Add,
            dst: Reg::R1,
            imm: 1,
        });
        a.cmp_ri(Reg::R1, 20);
        a.jcc("loop", mvasm::Cond::Lt);
        a.emit(mvasm::Insn::Halt);
        let blob = a.finish().unwrap();
        let mut o = Object::new("t");
        o.append(mvobj::SEC_TEXT, SectionKind::Text, &blob.bytes);
        o.define(Symbol::func(
            "main",
            mvobj::SEC_TEXT,
            0,
            blob.bytes.len() as u64,
        ));
        link(&[o], &Layout::default()).unwrap()
    }

    /// The value of the counter `name` carrying `labels` in `r`.
    fn counter(r: &Registry, name: &str, labels: &[(&str, &str)]) -> u64 {
        let snap = r.snapshot();
        let s = snap
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && labels
                        .iter()
                        .all(|&(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .unwrap_or_else(|| panic!("{name}{labels:?} not registered"));
        match s.value {
            mvmetrics::SampleValue::Counter(v) => v,
            _ => unreachable!(),
        }
    }

    #[test]
    fn block_counters_mirror_tiered_run() {
        let exe = loop_exe();
        let mut m = Machine::boot(&exe);
        m.set_tier(crate::block::ExecTier::Tiered);
        m.run_entry(&exe).unwrap();

        let r = Registry::new();
        let mut vm = VmMetrics::new(&r);
        vm.record_machine(&m);
        assert!(
            counter(&r, "mv_vm_block_hits_total", &[]) > 0,
            "loop re-entries must hit"
        );
        assert!(counter(&r, "mv_vm_block_misses_total", &[]) > 0);
        assert_eq!(
            counter(&r, "mv_vm_block_hits_total", &[]),
            m.block_stats().hits
        );
    }

    #[test]
    fn native_bypass_counters_mirror_by_reason() {
        // A profiler keeps registered regions off: every tiered step
        // counts one `profile` bypass and no region runs.
        let exe = loop_exe();
        let mut m = Machine::boot(&exe);
        m.set_tier(crate::block::ExecTier::Tiered);
        assert!(m.ensure_native(exe.entry), "main must lower");
        m.enable_profile(&exe);
        m.run_entry(&exe).unwrap();
        let n = m.native_stats();
        assert_eq!(n.runs, 0, "{n:?}");
        assert!(n.bypass_profile > 0, "{n:?}");

        let r = Registry::new();
        let mut vm = VmMetrics::new(&r);
        vm.record_machine(&m);
        let bypass = |reason| counter(&r, "mv_vm_native_bypass_total", &[("reason", reason)]);
        assert_eq!(bypass("profile"), n.bypass_profile);
        assert_eq!((bypass("trace"), bypass("smp")), (0, 0));
    }

    #[test]
    fn disabled_registry_stays_zero() {
        let m = run_tiny();
        let r = Registry::disabled();
        let mut vm = VmMetrics::new(&r);
        vm.record_machine(&m);
        assert!(r
            .snapshot()
            .iter()
            .all(|s| matches!(s.value, mvmetrics::SampleValue::Counter(0))));
    }
}
