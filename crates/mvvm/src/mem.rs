//! Paged guest memory with R/W/X protection and icache versioning.
//!
//! The page table is one [`FxBuildHasher`]-keyed map from page number to
//! [`Page`]. Every access that lies inside one page — which is every
//! guest load, store and instruction fetch short of a page-straddling
//! one — costs a single probe: that probe checks protection, reads the
//! page's `text` flag (which decides whether a `TextWrite` fault plan is
//! consulted) and copies the bytes. Accesses spanning pages validate
//! every page before copying any byte, so a faulting one is atomic.
//!
//! Pages are demand-backed: [`Memory::map`] records protection only and
//! a page's 4 KiB are allocated on its first write. Reads and fetches of
//! a never-written page see zeros, exactly as a zero-filled page would.
//!
//! Backed pages are copy-on-write: [`Memory::fork`] copies the page
//! table but shares every page's bytes, and the first write to a shared
//! page in either memory copies it. The write path pays one reference
//! count check for this; the copy happens after the protection check
//! and the fault plan, so a refused write copies nothing.
//!
//! Every memory has a process-unique [`Memory::id`]; a fork gets a fresh
//! one. Caches that outlive a fork key their "nothing flushed since"
//! fast path on `(id, flush_epoch)`, never on the epoch alone, because
//! two forks can count the same number of flushes over different text.

use crate::block::FxBuildHasher;
use crate::fault::{FaultOp, FaultPlan};
use mvobj::{Executable, Prot};
use std::collections::HashMap;
use std::fmt;
use std::ops::RangeInclusive;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Page size of the guest address space. Matches the linker's default so
/// each section's protection can be changed independently.
pub const PAGE_SIZE: u64 = 4096;

const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// What every never-written page reads as.
static ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];

/// Memory access classes, for fault reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// A memory fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemError {
    /// Faulting guest address.
    pub addr: u64,
    /// The attempted access.
    pub access: Access,
    /// `true` if the page is mapped but the protection forbids the access
    /// (e.g. a write to the R-X text segment); `false` if unmapped.
    pub mapped: bool,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.access {
            Access::Read => "read",
            Access::Write => "write",
            Access::Exec => "execute",
        };
        if self.mapped {
            write!(f, "protection fault: {what} at {:#x}", self.addr)
        } else {
            write!(f, "unmapped {what} at {:#x}", self.addr)
        }
    }
}

impl std::error::Error for MemError {}

#[derive(Clone)]
struct Page {
    /// `None` until the first write backs the page; shared with forks
    /// until either side writes (see module docs).
    bytes: Option<Rc<[u8; PAGE_BYTES]>>,
    prot: Prot,
    /// Bumped by [`Memory::flush_icache`]; the CPU's decode cache keys on
    /// it. Writing patched bytes without flushing leaves stale decoded
    /// instructions visible — exactly the hazard the paper's run-time
    /// library avoids by flushing after patching (§4).
    code_version: u64,
    /// Set once the page has ever been mapped or mprotected executable,
    /// never cleared. Distinguishes patching-path writes (which fault
    /// plans target) from ordinary guest data stores even while the
    /// W^X dance has the page temporarily RW.
    text: bool,
}

impl Page {
    fn new(prot: Prot) -> Page {
        Page {
            bytes: None,
            prot,
            code_version: 0,
            text: prot.exec,
        }
    }

    #[inline]
    fn bytes(&self) -> &[u8; PAGE_BYTES] {
        self.bytes.as_deref().unwrap_or(&ZERO_PAGE)
    }

    /// The page's bytes for writing, backing the page on first use and
    /// copying it if a fork still shares it.
    #[inline]
    fn bytes_mut(&mut self) -> &mut [u8; PAGE_BYTES] {
        Rc::make_mut(self.bytes.get_or_insert_with(|| Rc::new([0u8; PAGE_BYTES])))
    }
}

/// Consults `fault` for one operation (see [`Memory::trip_fault`]); a
/// free function so callers can hold a page borrowed at the same time.
#[inline]
fn trips(fault: &mut Option<FaultPlan>, op: FaultOp, addr: u64) -> bool {
    fault.as_mut().is_some_and(|plan| plan.trips(op, addr))
}

/// Offset of `addr` in its page if `[addr, addr+len)` lies inside that
/// one page.
#[inline]
fn in_page(addr: u64, len: usize) -> Option<usize> {
    let po = (addr % PAGE_SIZE) as usize;
    (len <= PAGE_BYTES - po).then_some(po)
}

/// A process-unique memory identity (see [`Memory::id`]).
fn fresh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The guest physical/virtual memory (flat, demand-populated,
/// copy-on-write pages).
pub struct Memory {
    pages: HashMap<u64, Page, FxBuildHasher>,
    fault: Option<FaultPlan>,
    /// Bumped by every icache flush that takes effect (see
    /// [`Memory::flush_epoch`]).
    flush_epoch: u64,
    id: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: HashMap::default(),
            fault: None,
            flush_epoch: 0,
            id: fresh_id(),
        }
    }
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// A copy-on-write copy of this memory: the same mappings,
    /// protections, bytes, code versions, flush epoch and fault plan
    /// (trip counts included), under a fresh [`Memory::id`]. Costs one
    /// page-table entry per mapped page; page bytes stay shared until
    /// either memory writes them.
    pub fn fork(&self) -> Memory {
        Memory {
            pages: self.pages.clone(),
            fault: self.fault.clone(),
            flush_epoch: self.flush_epoch,
            id: fresh_id(),
        }
    }

    /// This memory's process-unique identity. [`Memory::fork`] gives
    /// the copy a fresh one, so `(id, flush_epoch)` names one flush
    /// history even after forks diverge.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn page_no(addr: u64) -> u64 {
        addr / PAGE_SIZE
    }

    /// Page numbers of every page overlapping `[addr, addr+len)`, or
    /// `None` for an empty range. A range running past the top of the
    /// address space ends at the top page.
    fn page_span(addr: u64, len: u64) -> Option<RangeInclusive<u64>> {
        let last = addr.saturating_add(len.checked_sub(1)?);
        Some(Self::page_no(addr)..=Self::page_no(last))
    }

    /// Maps `len` bytes at `addr` with protection `prot`, zero-filled.
    /// Extends/overwrites protection of already-mapped pages in the range.
    /// Only the protection is recorded; a page is backed on its first
    /// write.
    pub fn map(&mut self, addr: u64, len: u64, prot: Prot) {
        let Some(span) = Self::page_span(addr, len) else {
            return;
        };
        for p in span {
            let page = self.pages.entry(p).or_insert_with(|| Page::new(prot));
            page.prot = prot;
            page.text |= prot.exec;
        }
    }

    /// Installs a deterministic fault schedule (see [`crate::fault`]).
    /// Replaces any existing plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Removes the fault schedule, returning it (with its counters) so
    /// tests can assert how far it got.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Consults the installed fault schedule for one operation of class
    /// `op` at `addr`, counting it and reporting whether it must fail.
    ///
    /// Memory's own primitives call this internally; it is public so
    /// higher layers can put *their* operation classes (trap plants,
    /// remote shootdowns) under the same deterministic schedule — the
    /// plan lives here because `Memory` is the one object every layer
    /// of the stack can reach. Address-less operations report `0`.
    pub fn trip_fault(&mut self, op: FaultOp, addr: u64) -> bool {
        trips(&mut self.fault, op, addr)
    }

    /// Number of pages whose bytes are allocated (written at least once,
    /// here or before a fork). Mapped but never-written pages cost only
    /// their table entry.
    pub fn backed_pages(&self) -> usize {
        self.pages.values().filter(|p| p.bytes.is_some()).count()
    }

    /// Whether the page containing `addr` is mapped and backed.
    pub fn is_backed(&self, addr: u64) -> bool {
        self.pages
            .get(&Self::page_no(addr))
            .is_some_and(|p| p.bytes.is_some())
    }

    /// Whether any page in `[addr, addr+len)` is (or ever was) text.
    fn touches_text(&self, addr: u64, len: usize) -> bool {
        Self::page_span(addr, len as u64)
            .is_some_and(|mut span| span.any(|p| self.pages.get(&p).is_some_and(|pg| pg.text)))
    }

    /// Loads all segments of a linked executable.
    pub fn load(&mut self, exe: &Executable) {
        for seg in &exe.segments {
            self.map(seg.addr, seg.bytes.len().max(1) as u64, seg.prot);
            self.write_unchecked(seg.addr, &seg.bytes);
        }
    }

    /// Changes the protection of every page overlapping `[addr, addr+len)`
    /// — the guest-side `mprotect`.
    ///
    /// Returns the number of pages affected. Unmapped pages in the range
    /// fault.
    pub fn mprotect(&mut self, addr: u64, len: u64, prot: Prot) -> Result<u64, MemError> {
        let Some(span) = Self::page_span(addr, len) else {
            return Ok(0);
        };
        for p in span.clone() {
            if !self.pages.contains_key(&p) {
                return Err(MemError {
                    addr: p * PAGE_SIZE,
                    access: Access::Write,
                    mapped: false,
                });
            }
        }
        if self.trip_fault(FaultOp::Mprotect, addr) {
            // Injected transient protection-change failure (indistinguishable
            // from a real one: the range is mapped, nothing was changed).
            return Err(MemError {
                addr,
                access: Access::Write,
                mapped: true,
            });
        }
        let pages = span.end() - span.start() + 1;
        for p in span {
            let page = self.pages.get_mut(&p).expect("checked above");
            page.prot = prot;
            page.text |= prot.exec;
        }
        Ok(pages)
    }

    /// Current protection of the page containing `addr`.
    pub fn prot_of(&self, addr: u64) -> Option<Prot> {
        self.pages.get(&Self::page_no(addr)).map(|p| p.prot)
    }

    /// Invalidates cached decoded instructions for `[addr, addr+len)`.
    ///
    /// An installed [`FaultPlan`] targeting flushes makes this silently
    /// drop the request — versions are not bumped and stale decoded
    /// instructions keep executing, the classic missing-flush hazard.
    pub fn flush_icache(&mut self, addr: u64, len: u64) {
        let Some(span) = Self::page_span(addr, len) else {
            return;
        };
        if self.trip_fault(FaultOp::IcacheFlush, addr) {
            return;
        }
        self.flush_epoch += 1;
        for p in span {
            if let Some(page) = self.pages.get_mut(&p) {
                page.code_version += 1;
            }
        }
    }

    /// Monotonic count of icache flushes that took effect. A caller who
    /// requested a flush and sees the epoch unchanged knows the flush
    /// was lost (e.g. dropped by a [`FaultPlan`]) and that stale decoded
    /// instructions may keep executing.
    pub fn flush_epoch(&self) -> u64 {
        self.flush_epoch
    }

    /// Code version of the page containing `addr` (0 for unmapped).
    pub fn code_version(&self, addr: u64) -> u64 {
        self.pages
            .get(&Self::page_no(addr))
            .map_or(0, |p| p.code_version)
    }

    /// Validates every page of a multi-page access before any byte moves.
    /// An access running past the top of the address space faults as
    /// unmapped at `addr`.
    fn access(
        &self,
        addr: u64,
        len: usize,
        access: Access,
        check: impl Fn(Prot) -> bool,
    ) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let Some(end) = addr.checked_add(len as u64 - 1) else {
            return Err(MemError {
                addr,
                access,
                mapped: false,
            });
        };
        self.page(addr, access, &check)?;
        for p in Self::page_no(addr) + 1..=Self::page_no(end) {
            self.page(p * PAGE_SIZE, access, &check)?;
        }
        Ok(())
    }

    /// One page-table probe: the page holding `addr` if `check` allows
    /// the access, else the fault an access of class `access` at `addr`
    /// gets (`mapped` tells a forbidden page from a missing one).
    #[inline]
    fn page(
        &self,
        addr: u64,
        access: Access,
        check: impl Fn(Prot) -> bool,
    ) -> Result<&Page, MemError> {
        match self.pages.get(&Self::page_no(addr)) {
            Some(page) if check(page.prot) => Ok(page),
            found => Err(MemError {
                addr,
                access,
                mapped: found.is_some(),
            }),
        }
    }

    fn copy_out(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let page = self.pages.get(&Self::page_no(a)).expect("checked");
            let po = (a % PAGE_SIZE) as usize;
            let n = (buf.len() - done).min(PAGE_BYTES - po);
            buf[done..done + n].copy_from_slice(&page.bytes()[po..po + n]);
            done += n;
        }
    }

    fn copy_in(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let a = addr + done as u64;
            let page = self.pages.get_mut(&Self::page_no(a)).expect("checked");
            let po = (a % PAGE_SIZE) as usize;
            let n = (data.len() - done).min(PAGE_BYTES - po);
            page.bytes_mut()[po..po + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Reads `buf.len()` bytes at `addr` (data access).
    #[inline]
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        if buf.is_empty() {
            return Ok(());
        }
        if let Some(po) = in_page(addr, buf.len()) {
            let page = self.page(addr, Access::Read, |p| p.read)?;
            buf.copy_from_slice(&page.bytes()[po..po + buf.len()]);
            return Ok(());
        }
        self.access(addr, buf.len(), Access::Read, |p| p.read)?;
        self.copy_out(addr, buf);
        Ok(())
    }

    /// Reads into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// Writes `data` at `addr` (data access, respects protection).
    ///
    /// A [`FaultPlan`] targeting text writes can fail the call even
    /// though protection allows it — modelling a transient fault in the
    /// middle of a patching sequence. Only writes touching a text page
    /// consume the plan's counter; guest data stores are never affected.
    /// A protection fault is reported before the plan is consulted.
    #[inline]
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        if data.is_empty() {
            return Ok(());
        }
        let injected = MemError {
            addr,
            access: Access::Write,
            mapped: true,
        };
        if let Some(po) = in_page(addr, data.len()) {
            let Memory { pages, fault, .. } = self;
            let page = match pages.get_mut(&Self::page_no(addr)) {
                Some(page) if page.prot.write => page,
                found => {
                    return Err(MemError {
                        addr,
                        access: Access::Write,
                        mapped: found.is_some(),
                    })
                }
            };
            if page.text && trips(fault, FaultOp::TextWrite, addr) {
                return Err(injected);
            }
            page.bytes_mut()[po..po + data.len()].copy_from_slice(data);
            return Ok(());
        }
        self.access(addr, data.len(), Access::Write, |p| p.write)?;
        if self.touches_text(addr, data.len()) && self.trip_fault(FaultOp::TextWrite, addr) {
            return Err(injected);
        }
        self.copy_in(addr, data);
        Ok(())
    }

    /// Writes ignoring protection — loader use only. Bytes that would
    /// land past the top of the address space are dropped.
    pub fn write_unchecked(&mut self, addr: u64, data: &[u8]) {
        let fits = usize::try_from(u64::MAX - addr).map_or(usize::MAX, |n| n.saturating_add(1));
        let data = &data[..data.len().min(fits)];
        // Ensure pages exist (loader may write into fresh mappings only).
        let Some(span) = Self::page_span(addr, data.len() as u64) else {
            return;
        };
        for p in span {
            self.pages.entry(p).or_insert_with(|| Page::new(Prot::RW));
        }
        self.copy_in(addr, data);
    }

    /// Fetches up to `len` bytes for execution at `addr`.
    #[inline]
    pub fn fetch(&self, addr: u64, buf: &mut [u8]) -> Result<usize, MemError> {
        let page = self.page(addr, Access::Exec, |p| p.exec)?;
        // Fetch as many bytes as are executable and mapped; decode decides
        // whether that is enough.
        let po = (addr % PAGE_SIZE) as usize;
        let mut n = buf.len().min(PAGE_BYTES - po);
        buf[..n].copy_from_slice(&page.bytes()[po..po + n]);
        while n < buf.len() {
            let Some(a) = addr.checked_add(n as u64) else {
                break;
            };
            match self.pages.get(&Self::page_no(a)) {
                Some(p) if p.prot.exec => {
                    let take = (buf.len() - n).min(PAGE_BYTES);
                    buf[n..n + take].copy_from_slice(&p.bytes()[..take]);
                    n += take;
                }
                _ => break,
            }
        }
        Ok(n)
    }

    /// Reads a little-endian unsigned integer of `width` bytes.
    #[inline]
    pub fn read_uint(&self, addr: u64, width: usize) -> Result<u64, MemError> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..width])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a little-endian integer of `width` bytes, sign-extending if
    /// `signed`.
    pub fn read_int(&self, addr: u64, width: usize, signed: bool) -> Result<i64, MemError> {
        let raw = self.read_uint(addr, width)?;
        Ok(extend(raw, width, signed))
    }

    /// Writes the low `width` bytes of `value`, little-endian.
    #[inline]
    pub fn write_int(&mut self, addr: u64, value: u64, width: usize) -> Result<(), MemError> {
        self.write(addr, &value.to_le_bytes()[..width])
    }
}

/// Sign- or zero-extends the low `width` bytes of `raw` to 64 bits.
pub fn extend(raw: u64, width: usize, signed: bool) -> i64 {
    let bits = width * 8;
    if bits >= 64 {
        return raw as i64;
    }
    let masked = raw & ((1u64 << bits) - 1);
    if signed {
        let shift = 64 - bits;
        ((masked << shift) as i64) >> shift
    } else {
        masked as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write_roundtrip() {
        let mut m = Memory::new();
        m.map(0x1000, 100, Prot::RW);
        m.write(0x1010, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_vec(0x1010, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn write_to_text_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 100, Prot::RX);
        let e = m.write(0x1000, &[0x90]).unwrap_err();
        assert!(e.mapped);
        assert_eq!(e.access, Access::Write);
        // After mprotect the write succeeds (the patching dance).
        m.mprotect(0x1000, 100, Prot::RW).unwrap();
        m.write(0x1000, &[0x90]).unwrap();
        m.mprotect(0x1000, 100, Prot::RX).unwrap();
        assert!(m.write(0x1000, &[0x90]).is_err());
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new();
        let e = m.read_vec(0xdead_0000, 1).unwrap_err();
        assert!(!e.mapped);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Prot::RW);
        let data: Vec<u8> = (0..=255).collect();
        let addr = 0x1000 + PAGE_SIZE - 100;
        m.write(addr, &data).unwrap();
        assert_eq!(m.read_vec(addr, 256).unwrap(), data);
    }

    #[test]
    fn cross_page_fault_is_atomic() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Prot::RW); // second page unmapped
        let addr = 0x1000 + PAGE_SIZE - 2;
        let before = m.read_vec(addr, 2).unwrap();
        assert!(m.write(addr, &[7, 7, 7, 7]).is_err());
        // Nothing was partially written.
        assert_eq!(m.read_vec(addr, 2).unwrap(), before);
    }

    #[test]
    fn icache_version_bumps_only_on_flush() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Prot::RW);
        assert_eq!(m.code_version(0x1000), 0);
        m.write(0x1000, &[1]).unwrap();
        assert_eq!(m.code_version(0x1000), 0);
        m.flush_icache(0x1000, 1);
        assert_eq!(m.code_version(0x1000), 1);
        assert_eq!(m.code_version(0x1000 + PAGE_SIZE), 0);
    }

    #[test]
    fn extend_signs_correctly() {
        assert_eq!(extend(0xFF, 1, true), -1);
        assert_eq!(extend(0xFF, 1, false), 255);
        assert_eq!(extend(0x8000, 2, true), -32768);
        assert_eq!(extend(0x7FFF_FFFF, 4, true), i32::MAX as i64);
        assert_eq!(extend(0xFFFF_FFFF, 4, true), -1);
        assert_eq!(extend(u64::MAX, 8, false), -1);
    }

    #[test]
    fn read_int_widths() {
        let mut m = Memory::new();
        m.map(0, 16, Prot::RW);
        m.write_int(0, 0xFFFF_FFFF_FFFF_FFFE, 4).unwrap();
        assert_eq!(m.read_int(0, 4, true).unwrap(), -2);
        assert_eq!(m.read_int(0, 4, false).unwrap(), 0xFFFF_FFFE);
        assert_eq!(m.read_int(0, 8, false).unwrap(), 0xFFFF_FFFE);
    }

    #[test]
    fn mprotect_unmapped_fails() {
        let mut m = Memory::new();
        assert!(m.mprotect(0x5000, 10, Prot::RW).is_err());
    }

    #[test]
    fn top_page_of_the_address_space_is_usable() {
        let top = u64::MAX - PAGE_SIZE + 1;
        let mut m = Memory::new();
        m.map(top, PAGE_SIZE, Prot::RX);
        m.write_unchecked(u64::MAX - 3, &[1, 2, 3, 4]);
        assert_eq!(m.mprotect(top, PAGE_SIZE, Prot::RW), Ok(1));
        m.write(u64::MAX, &[9]).unwrap();
        assert_eq!(m.read_vec(u64::MAX - 3, 4).unwrap(), vec![1, 2, 3, 9]);
        m.flush_icache(top, PAGE_SIZE);
        assert_eq!(m.code_version(u64::MAX), 1);
        // Ranges running past the top end at the top page.
        assert_eq!(m.mprotect(u64::MAX, 2, Prot::RX), Ok(1));
        m.flush_icache(u64::MAX, 2);
        assert_eq!(m.code_version(u64::MAX), 2);
        m.write_unchecked(u64::MAX, &[5, 6]);
        assert_eq!(m.read_vec(u64::MAX, 1).unwrap(), vec![5]);
    }
}
