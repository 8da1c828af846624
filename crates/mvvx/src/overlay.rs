//! Copy-on-write memory deltas: the bytes one variational context wrote
//! over the shared base image.
//!
//! The delta is byte-granular, as the value lattice is, but stored in
//! 64-byte chunks. Concrete bytes sit in a plain array; only bytes that
//! hold a [`Val::PerValue`] keep a table. Every chunk is behind its own
//! [`Rc`], and so is the chunk map, the way `mvvm::Memory::fork` shares
//! pages:
//!
//! * a split child starts from its parent's overlay in O(1) and copies
//!   one chunk (plus the small chunk map) on its first write to it;
//! * re-restricting a child copies only chunks holding a `PerValue`
//!   that the restriction changes;
//! * a join walks only chunks that are not pointer-equal on both sides —
//!   the chunks either side wrote (or re-restricted) since they shared a
//!   copy — and in them skips bytes both hold as the same concrete byte.

use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::rc::Rc;

use crate::config::{ConfigSpace, LeafSet};
use crate::value::Val;

/// Bytes per chunk: one bit of a `u64` mask each.
const CHUNK: u64 = 64;

/// The bit offsets set in `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let bit = mask.trailing_zeros();
        mask &= mask - 1;
        Some(bit)
    })
}

/// Bits `lo..=hi` of a `u64`.
fn span(lo: u64, hi: u64) -> u64 {
    (!0u64 >> (63 - hi)) & (!0u64 << lo)
}

/// 64 consecutive bytes of a delta.
#[derive(Clone)]
struct Chunk {
    /// Bit `i`: byte `i` was written.
    written: u64,
    /// Bit `i`: byte `i` holds a switch-dependent value, kept in `sym`.
    symbolic: u64,
    /// Values of the written, non-symbolic bytes.
    bytes: [u8; CHUNK as usize],
    /// `(offset, value)` of the symbolic bytes, sorted by offset.
    sym: Vec<(u8, Val)>,
}

impl Chunk {
    const EMPTY: Chunk = Chunk {
        written: 0,
        symbolic: 0,
        bytes: [0; CHUNK as usize],
        sym: Vec::new(),
    };

    fn sym_slot(&self, off: u32) -> Result<usize, usize> {
        self.sym.binary_search_by_key(&(off as u8), |e| e.0)
    }

    fn get(&self, off: u32) -> Option<Byte<'_>> {
        if self.written >> off & 1 == 0 {
            return None;
        }
        Some(if self.symbolic >> off & 1 == 1 {
            let slot = self.sym_slot(off).expect("symbolic bit without a table");
            Byte::Sym(&self.sym[slot].1)
        } else {
            Byte::Concrete(self.bytes[off as usize])
        })
    }

    /// Stores one concrete byte.
    fn set_byte(&mut self, off: u32, b: u8) {
        let bit = 1u64 << off;
        self.written |= bit;
        self.bytes[off as usize] = b;
        if self.symbolic & bit != 0 {
            self.symbolic &= !bit;
            let slot = self.sym_slot(off).expect("symbolic bit without a table");
            self.sym.remove(slot);
        }
    }

    /// Stores one byte value (a lane already masked to 8 bits).
    fn set(&mut self, off: u32, v: Val) {
        match v {
            Val::Concrete(c) => self.set_byte(off, c as u8),
            sym => {
                self.written |= 1 << off;
                self.symbolic |= 1 << off;
                match self.sym_slot(off) {
                    Ok(slot) => self.sym[slot].1 = sym,
                    Err(slot) => self.sym.insert(slot, (off as u8, sym)),
                }
            }
        }
    }
}

/// The bytes of two sides of one chunk that may differ: written on
/// either side, minus those both hold as the same concrete byte.
fn differing(a: Option<&Chunk>, b: Option<&Chunk>) -> u64 {
    match (a, b) {
        (Some(a), Some(b)) => {
            let concrete = a.written & b.written & !a.symbolic & !b.symbolic;
            let same =
                (0..CHUNK as usize).fold(0u64, |m, i| m | ((a.bytes[i] == b.bytes[i]) as u64) << i);
            (a.written | b.written) & !(concrete & same)
        }
        (Some(c), None) | (None, Some(c)) => c.written,
        (None, None) => 0,
    }
}

/// One written byte as the delta holds it.
#[derive(Clone, Copy)]
pub(crate) enum Byte<'o> {
    /// The same byte in every configuration of the context.
    Concrete(u8),
    /// A byte tabulated over one switch.
    Sym(&'o Val),
}

impl Byte<'_> {
    /// The byte as a [`Val`].
    pub(crate) fn to_val(self) -> Val {
        match self {
            Byte::Concrete(b) => Val::Concrete(b as u64),
            Byte::Sym(v) => v.clone(),
        }
    }

    /// The byte under one leaf configuration.
    pub(crate) fn at(self, space: &ConfigSpace, leaf: usize) -> u8 {
        match self {
            Byte::Concrete(b) => b,
            Byte::Sym(v) => v.at(space, leaf) as u8,
        }
    }
}

/// What the delta holds for the bytes of one access of at most 8 bytes.
pub(crate) struct Lanes<'o> {
    addr: u64,
    last: u64,
    /// Bit `j`: byte `addr + j` was written.
    pub(crate) written: u32,
    /// Bit `j`: that byte is symbolic.
    pub(crate) symbolic: u32,
    /// The written concrete bytes, byte `addr + j` at bits `8j..8j+8`.
    pub(crate) concrete: u64,
    chunks: [Option<(u64, &'o Chunk)>; 2],
}

impl<'o> Lanes<'o> {
    /// Takes in the access's bytes that lie in `chunk` (key `key`), the
    /// `n`-th chunk the access touches.
    fn fill(&mut self, n: usize, key: u64, chunk: &'o Chunk) {
        self.chunks[n] = Some((key, chunk));
        let base = key * CHUNK;
        for a in self.addr.max(base)..=self.last.min(base + CHUNK - 1) {
            let (j, off) = ((a - self.addr) as u32, a - base);
            if chunk.written >> off & 1 == 0 {
                continue;
            }
            self.written |= 1 << j;
            if chunk.symbolic >> off & 1 == 1 {
                self.symbolic |= 1 << j;
            } else {
                self.concrete |= (chunk.bytes[off as usize] as u64) << (8 * j);
            }
        }
    }

    /// Byte `addr + j`, if written.
    pub(crate) fn get(&self, j: usize) -> Option<Byte<'o>> {
        let a = self.addr + j as u64;
        self.chunks
            .iter()
            .flatten()
            .find(|(key, _)| *key == a / CHUNK)
            .and_then(|(_, c)| c.get((a % CHUNK) as u32))
    }
}

/// A context's memory delta over the shared base image.
#[derive(Clone)]
pub(crate) struct Overlay {
    chunks: Rc<BTreeMap<u64, Rc<Chunk>>>,
    /// Lowest and highest chunk key in `chunks` (`lo > hi` while empty),
    /// so probes far from every written byte skip the map.
    keys: (u64, u64),
}

impl Default for Overlay {
    fn default() -> Overlay {
        Overlay {
            chunks: Rc::default(),
            keys: (u64::MAX, 0),
        }
    }
}

impl Overlay {
    /// The delta's view of `addr .. addr + width` (`width ≤ 8`, not
    /// wrapping), from one probe of the chunk map.
    pub(crate) fn lanes(&self, addr: u64, width: usize) -> Lanes<'_> {
        debug_assert!((1..=8).contains(&width));
        let end = addr + width as u64 - 1;
        let mut lanes = Lanes {
            addr,
            last: end,
            written: 0,
            symbolic: 0,
            concrete: 0,
            chunks: [None; 2],
        };
        if end / CHUNK < self.keys.0 || addr / CHUNK > self.keys.1 {
            return lanes;
        }
        if addr / CHUNK == end / CHUNK {
            if let Some(chunk) = self.chunks.get(&(addr / CHUNK)) {
                lanes.fill(0, addr / CHUNK, chunk);
            }
        } else {
            for (n, (&key, chunk)) in self.chunks.range(addr / CHUNK..=end / CHUNK).enumerate() {
                lanes.fill(n, key, chunk);
            }
        }
        lanes
    }

    /// `true` if any byte of `lo .. hi` was written.
    pub(crate) fn any_written(&self, lo: u64, hi: u64) -> bool {
        if lo >= hi {
            return false;
        }
        let last = hi - 1;
        if last / CHUNK < self.keys.0 || lo / CHUNK > self.keys.1 {
            return false;
        }
        self.chunks
            .range(lo / CHUNK..=last / CHUNK)
            .any(|(&key, c)| {
                let base = key * CHUNK;
                let from = lo.max(base) - base;
                let to = last.min(base + CHUNK - 1) - base;
                c.written & span(from, to) != 0
            })
    }

    /// Stores the low `width` bytes of `val` at `addr` (not wrapping),
    /// little-endian, one lane per byte.
    pub(crate) fn write(&mut self, addr: u64, width: usize, val: &Val) {
        let end = addr + width as u64 - 1;
        self.keys = (self.keys.0.min(addr / CHUNK), self.keys.1.max(end / CHUNK));
        let map = Rc::make_mut(&mut self.chunks);
        for key in addr / CHUNK..=end / CHUNK {
            let chunk = Rc::make_mut(map.entry(key).or_insert_with(|| Rc::new(Chunk::EMPTY)));
            let base = key * CHUNK;
            for a in addr.max(base)..=end.min(base + CHUNK - 1) {
                let (off, shift) = ((a - base) as u32, 8 * (a - addr) as u32);
                match val {
                    Val::Concrete(v) => chunk.set_byte(off, (v >> shift) as u8),
                    _ => chunk.set(off, val.map(|v| (v >> shift) & 0xFF)),
                }
            }
        }
    }

    /// Restricts every symbolic byte to `leaves`. Chunks whose tables
    /// stay as they are — every chunk without a symbolic byte among
    /// them — stay shared.
    pub(crate) fn restrict(&mut self, space: &ConfigSpace, leaves: &LeafSet) {
        let stale = |c: &Chunk| c.sym.iter().any(|(_, v)| !v.is_live_in(space, leaves));
        if !self.chunks.values().any(|c| stale(c)) {
            return;
        }
        for chunk in Rc::make_mut(&mut self.chunks).values_mut() {
            if !stale(chunk) {
                continue;
            }
            let mut fresh = Chunk {
                symbolic: 0,
                sym: Vec::new(),
                ..**chunk
            };
            for (off, v) in &chunk.sym {
                fresh.set(*off as u32, v.restrict(space, leaves));
            }
            *chunk = Rc::new(fresh);
        }
    }

    /// Every written byte, ascending by address.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Byte<'_>)> {
        self.chunks.iter().flat_map(|(&key, c)| {
            bits(c.written).map(move |off| {
                let byte = c.get(off).expect("written bit");
                (key * CHUNK + off as u64, byte)
            })
        })
    }

    /// Every byte that may differ between `a` and `b`, ascending: the
    /// written bytes of each chunk that is not shared by both, except
    /// those both sides hold as the same concrete byte. A byte one side
    /// never wrote comes as `None` on that side.
    pub(crate) fn diff<'o>(
        a: &'o Overlay,
        b: &'o Overlay,
    ) -> impl Iterator<Item = (u64, Option<Byte<'o>>, Option<Byte<'o>>)> {
        ChunkPairs::new(a, b).flat_map(|(key, ca, cb)| {
            bits(differing(ca, cb)).map(move |off| {
                (
                    key * CHUNK + off as u64,
                    ca.and_then(|c| c.get(off)),
                    cb.and_then(|c| c.get(off)),
                )
            })
        })
    }

    /// The delta that holds, at every byte of [`Overlay::diff`], what
    /// `merge` makes of it, and agrees with `a` (and so with `b`) on
    /// every other byte.
    pub(crate) fn join(
        a: &Overlay,
        b: &Overlay,
        mut merge: impl FnMut(u64, Option<Byte<'_>>, Option<Byte<'_>>) -> Val,
    ) -> Overlay {
        if Rc::ptr_eq(&a.chunks, &b.chunks) {
            return a.clone();
        }
        let mut out = a.clone();
        out.keys = (a.keys.0.min(b.keys.0), a.keys.1.max(b.keys.1));
        let map = Rc::make_mut(&mut out.chunks);
        for (key, ca, cb) in ChunkPairs::new(a, b) {
            let mut chunk = ca.cloned().unwrap_or(Chunk::EMPTY);
            for off in bits(differing(ca, cb)) {
                let v = merge(
                    key * CHUNK + off as u64,
                    ca.and_then(|c| c.get(off)),
                    cb.and_then(|c| c.get(off)),
                );
                chunk.set(off, v);
            }
            map.insert(key, Rc::new(chunk));
        }
        out
    }
}

/// The chunks of two deltas side by side, by key, skipping chunks both
/// share by pointer (and everything, if they share the whole map).
struct ChunkPairs<'o> {
    a: Peekable<btree_map::Iter<'o, u64, Rc<Chunk>>>,
    b: Peekable<btree_map::Iter<'o, u64, Rc<Chunk>>>,
    shared: bool,
}

impl<'o> ChunkPairs<'o> {
    fn new(a: &'o Overlay, b: &'o Overlay) -> ChunkPairs<'o> {
        ChunkPairs {
            a: a.chunks.iter().peekable(),
            b: b.chunks.iter().peekable(),
            shared: Rc::ptr_eq(&a.chunks, &b.chunks),
        }
    }
}

impl<'o> Iterator for ChunkPairs<'o> {
    type Item = (u64, Option<&'o Chunk>, Option<&'o Chunk>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.shared {
            return None;
        }
        loop {
            let ka = self.a.peek().map(|(k, _)| **k);
            let kb = self.b.peek().map(|(k, _)| **k);
            let key = match (ka, kb) {
                (None, None) => return None,
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) | (None, Some(x)) => x,
            };
            let ca = self.a.next_if(|(k, _)| **k == key).map(|(_, c)| c);
            let cb = self.b.next_if(|(k, _)| **k == key).map(|(_, c)| c);
            if let (Some(x), Some(y)) = (ca, cb) {
                if Rc::ptr_eq(x, y) {
                    continue;
                }
            }
            return Some((key, ca.map(|c| &**c), cb.map(|c| &**c)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(o: &Overlay) -> Vec<(u64, u64)> {
        o.iter()
            .map(|(a, b)| (a, b.to_val().as_concrete().unwrap()))
            .collect()
    }

    #[test]
    fn writes_straddle_chunks_and_read_back() {
        let mut o = Overlay::default();
        o.write(60, 8, &Val::Concrete(0x0807_0605_0403_0201));
        let lanes = o.lanes(60, 8);
        assert_eq!(lanes.written, 0xFF);
        assert_eq!(lanes.symbolic, 0);
        assert_eq!(lanes.concrete, 0x0807_0605_0403_0201);
        assert_eq!(o.lanes(56, 8).written, 0xF0);
        assert!(o.any_written(67, 70));
        assert!(!o.any_written(68, 200));
        assert_eq!(bytes(&o).len(), 8);
    }

    #[test]
    fn symbolic_lanes_keep_their_tables() {
        let mut o = Overlay::default();
        let v = Val::per_value(0, vec![(0, 0x1FF), (1, 0x2FF)]);
        o.write(8, 2, &v);
        let lanes = o.lanes(8, 2);
        // Lane 0 is 0xFF in both configurations, lane 1 differs.
        assert_eq!((lanes.written, lanes.symbolic), (0b11, 0b10));
        assert_eq!(lanes.concrete, 0xFF);
        assert!(matches!(lanes.get(1), Some(Byte::Sym(_))));
        // Overwriting with a concrete value drops the table.
        o.write(9, 1, &Val::Concrete(7));
        assert_eq!(o.lanes(8, 2).symbolic, 0);
        assert_eq!(bytes(&o), vec![(8, 0xFF), (9, 7)]);
    }

    #[test]
    fn forks_share_until_written_and_diff_skips_shared_chunks() {
        let mut parent = Overlay::default();
        parent.write(0, 8, &Val::Concrete(1));
        parent.write(128, 8, &Val::Concrete(2));
        let (mut a, b) = (parent.clone(), parent.clone());
        assert_eq!(Overlay::diff(&a, &b).count(), 0);
        a.write(130, 1, &Val::Concrete(9));
        // Only the chunk `a` wrote is compared, and in it only the byte
        // that differs.
        let diff: Vec<u64> = Overlay::diff(&a, &b).map(|(addr, _, _)| addr).collect();
        assert_eq!(diff, vec![130]);
        let joined = Overlay::join(&a, &b, |_, x, _| x.unwrap().to_val());
        assert_eq!(bytes(&joined), bytes(&a));
        assert_eq!(bytes(&parent)[8..], bytes(&b)[8..]);
    }
}
