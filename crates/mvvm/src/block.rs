//! Decoded straight-line blocks: the unit of the tiered execution engine.
//!
//! A [`DecodedBlock`] is a *recorded trace* of `(pc, insn)` pairs: the
//! first time the interpreter enters a block, it executes instruction by
//! instruction through the ordinary decode path ([`crate::Machine`]'s
//! `decode_at`) while memoizing every decode it performed. Replaying the
//! block later re-runs the exact same decoded instructions through the
//! exact same per-instruction execution routine, so cycles, [`crate::Stats`],
//! traces and profiles are byte-identical to tierless execution by
//! construction — the block layer memoizes *decode*, never semantics.
//!
//! Invalidation is precise, driven by the same per-page `code_version`
//! generations the per-instruction decode cache uses:
//!
//! * every block records the generation of **every page any of its
//!   instruction encodings touches** (an instruction straddling a page
//!   boundary contributes both pages);
//! * in normal (non-sticky) mode a block is served only while all its
//!   recorded generations still match — a commit patch followed by
//!   [`crate::Memory::flush_icache`] invalidates exactly the blocks whose
//!   pages were flushed, nothing else. The memory's `(id, flush_epoch)`
//!   pair ([`crate::Memory::id`], [`crate::Memory::flush_epoch`])
//!   provides an O(1) "nothing flushed since validation" fast path; the
//!   identity is part of the key because a forked machine shares its
//!   blocks, and two forks can reach the same epoch over different text;
//! * in sticky-icache mode (the SMP machine's private per-CPU icaches)
//!   version checks are skipped entirely; only an explicit shootdown
//!   ([`crate::SmpMachine::flush_remote`] →
//!   [`crate::Machine::invalidate_decode_range`]) evicts, using the same
//!   instruction-start-address rule the per-instruction cache uses, so a
//!   stale block stays observably stale exactly as long as a stale
//!   per-instruction decode would.

use mvasm::{AluOp, Insn};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Which execution engine the machine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecTier {
    /// The original fetch/decode/execute loop, one instruction at a time.
    /// This is the default and the oracle the tiered engine is
    /// differentially tested against.
    #[default]
    Tierless,
    /// The tiered engine: straight-line tier-0 blocks decoded once and
    /// replayed, hot block entries re-recorded as superblocks that fuse
    /// across direct `jmp`/`call` transfers, and pre-lowered
    /// whole-function regions ([`crate::native`]) wherever a caller
    /// registered them with [`crate::Machine::ensure_native`] — the
    /// `native` runtime backend does so through the commit protocol.
    Tiered,
}

impl ExecTier {
    /// Parses a tier name as accepted by `mvcc run --tier`.
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s {
            "tierless" => Some(ExecTier::Tierless),
            "tiered" => Some(ExecTier::Tiered),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecTier::Tierless => "tierless",
            ExecTier::Tiered => "tiered",
        })
    }
}

/// Ops per tier-0 block before recording stops unconditionally.
pub const MAX_BLOCK_INSTS: usize = 256;
/// Ops per superblock before recording stops unconditionally.
pub const MAX_SUPERBLOCK_INSTS: usize = 1024;
/// Direct transfers a superblock may fuse across.
pub const MAX_SUPERBLOCK_FUSES: usize = 16;

/// A recorded straight-line (or, for superblocks, direct-jump-fused) run
/// of decoded instructions, keyed by its entry `pc`.
pub struct DecodedBlock {
    /// Entry address (the cache key).
    pub entry: u64,
    /// The memoized `(pc, insn)` trace, in execution order.
    pub ops: Vec<(u64, Insn)>,
    /// `(page_number, code_version)` for every page any op's encoding
    /// touches, as observed when the block was recorded.
    pub pages: Vec<(u64, u64)>,
    /// `true` once this entry was promoted to a fused superblock.
    pub superblock: bool,
    /// `fast_runs[i]` is the length of the maximal run of *fast* ops
    /// (see [`DecodedBlock::is_fast`]) starting at `ops[i]`, or `0` if
    /// `ops[i]` is not fast. Replay retires a whole run with batched
    /// `tsc`/instruction-count bookkeeping — sound because fast ops
    /// cannot fault, halt, transfer control, or observe `tsc`/[`crate::Stats`],
    /// and nothing else can observe machine state mid-quantum.
    pub fast_runs: Vec<u32>,
    /// The validating memory's `(id, flush_epoch)` ([`crate::Memory::id`],
    /// [`crate::Memory::flush_epoch`]) at the last successful validation:
    /// while that memory's epoch still matches, no page generation in it
    /// can have moved, so the per-page comparison is skipped. Another
    /// memory (a fork) never matches, whatever its epoch.
    pub(crate) epoch: Cell<(u64, u64)>,
}

impl DecodedBlock {
    /// `true` for the register-only micro-op subset replay may batch:
    /// moves, `lea`, non-dividing ALU ops, compares and `setcc`. These
    /// touch only the register file, `cmp` operands and statically-known
    /// cycle charges — no memory, no control flow, no faults — so their
    /// observable effects commute with deferring the `tsc` and
    /// instruction-count updates to the end of the run.
    pub fn is_fast(insn: &Insn) -> bool {
        match insn {
            Insn::MovRR { .. }
            | Insn::MovRI { .. }
            | Insn::Lea { .. }
            | Insn::CmpRR { .. }
            | Insn::CmpRI { .. }
            | Insn::Setcc { .. } => true,
            Insn::AluRR { op, .. } | Insn::AluRI { op, .. } => {
                !matches!(op, AluOp::Divs | AluOp::Divu | AluOp::Rems | AluOp::Remu)
            }
            _ => false,
        }
    }

    /// Builds the [`DecodedBlock::fast_runs`] table for `ops`.
    pub fn fast_runs_of(ops: &[(u64, Insn)]) -> Vec<u32> {
        let mut runs = vec![0u32; ops.len()];
        for i in (0..ops.len()).rev() {
            if Self::is_fast(&ops[i].1) {
                runs[i] = 1 + runs.get(i + 1).copied().unwrap_or(0);
            }
        }
        runs
    }
    /// `true` if any op of this block *starts* in `[start, end)` — the
    /// same instruction-start-address rule
    /// [`crate::Machine::invalidate_decode_range`] applies to the
    /// per-instruction decode cache, so explicit shootdowns evict blocks
    /// and single decodes in lockstep.
    pub fn overlaps(&self, start: u64, end: u64) -> bool {
        self.ops.iter().any(|&(pc, _)| pc >= start && pc < end)
    }
}

/// A paranoia-free multiply-xor hasher for `u64` keys (the Fx shape),
/// std-only. Block caches sit on the hot path of every block entry;
/// SipHash's per-lookup cost is exactly the overhead the tiered engine
/// exists to amortize away.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Empties a map that forks may share: in place, keeping its
/// allocation, when this is the only handle; otherwise by letting go of
/// the shared one.
pub(crate) fn clear_shared<K, V>(map: &mut Rc<HashMap<K, V, FxBuildHasher>>) {
    match Rc::get_mut(map) {
        Some(m) => m.clear(),
        None => *map = Rc::default(),
    }
}

/// Monotone counters of one block cache (see
/// [`crate::tier0::BlockCache`]): hits, misses (= recordings),
/// evictions (stale or shot down) and superblock promotions. Mirrored
/// into the metrics registry as `mv_vm_block_*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Block entries served from the cache (one per replay, not per op).
    pub hits: u64,
    /// Block entries that had to be recorded.
    pub misses: u64,
    /// Blocks dropped because a page generation moved or an explicit
    /// invalidation covered one of their ops.
    pub evictions: u64,
    /// Hot tier-0 entries re-recorded as fused superblocks.
    pub promotions: u64,
}

impl std::ops::AddAssign for BlockCacheStats {
    fn add_assign(&mut self, d: BlockCacheStats) {
        self.hits += d.hits;
        self.misses += d.misses;
        self.evictions += d.evictions;
        self.promotions += d.promotions;
    }
}

/// Shared handle to a block. `Rc` keeps replay alive across an eviction
/// that lands mid-replay (host code runs between quanta, never inside
/// one, but the borrow would otherwise still conflict).
pub type BlockRef = Rc<DecodedBlock>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_tier_parses_exactly_two_names() {
        for tier in [ExecTier::Tierless, ExecTier::Tiered] {
            assert_eq!(ExecTier::parse(&tier.to_string()), Some(tier));
        }
        for gone in ["block", "superblock", "native", "tier0", "off", "bogus"] {
            assert_eq!(ExecTier::parse(gone), None, "{gone}");
        }
    }

    #[test]
    fn overlaps_uses_instruction_start_addresses() {
        let ops = vec![(0x100, Insn::Nop { len: 4 }), (0x104, Insn::Halt)];
        let b = DecodedBlock {
            entry: 0x100,
            fast_runs: DecodedBlock::fast_runs_of(&ops),
            ops,
            pages: vec![(0, 0)],
            superblock: false,
            epoch: Cell::new((0, 0)),
        };
        assert!(b.overlaps(0x100, 0x101));
        assert!(b.overlaps(0x104, 0x200));
        // Covers bytes of the nop but no op *starts* there — the
        // per-instruction cache would keep its entry, so the block layer
        // must too.
        assert!(!b.overlaps(0x101, 0x104));
        assert!(!b.overlaps(0x105, 0x200));
    }

    #[test]
    fn fast_runs_batch_register_only_ops_and_stop_at_everything_else() {
        use mvasm::Reg;
        let alu = |op| Insn::AluRI {
            op,
            dst: Reg::R0,
            imm: 1,
        };
        let ops: Vec<(u64, Insn)> = [
            alu(AluOp::Add),                    // fast
            alu(AluOp::Xor),                    // fast
            Insn::CmpRI { a: Reg::R0, imm: 3 }, // fast
            Insn::Jcc {
                cc: mvasm::Cond::Lt,
                rel: 0,
            }, // control flow: not fast
            alu(AluOp::Divu),                   // can fault: not fast
            Insn::MovRI {
                dst: Reg::R1,
                imm: 9,
            }, // fast
            Insn::Halt,                         // not fast
        ]
        .into_iter()
        .enumerate()
        .map(|(i, insn)| (i as u64 * 4, insn))
        .collect();
        assert_eq!(DecodedBlock::fast_runs_of(&ops), vec![3, 2, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn fx_hasher_distributes_u64_keys() {
        use std::hash::Hash;
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..1000 {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1000, "no collisions on small sequential keys");
    }
}
