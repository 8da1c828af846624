//! Differential test of the guest memory against a naive reference model.
//!
//! [`Memory`] answers single-page accesses with one page-table probe and
//! backs pages on their first write. The model below does neither: it
//! keeps every mapped page fully backed in a `BTreeMap` and checks every
//! access byte by byte. Random sequences of `map`/`mprotect`/`read`/
//! `write`/`write_unchecked`/`fetch`/`flush_icache`, with an optional
//! fault plan installed, must produce identical values, identical
//! [`MemError`]s, identical protections, code versions and flush epochs,
//! identical fault-plan trip counts and the same set of backed pages.
//!
//! A `Fork` op forks one of the memories ([`Memory::fork`]) and clones
//! its model. Every later op picks one memory at random, so parents and
//! children interleave, and each memory must keep agreeing with its own
//! model: copy-on-write pages never leak a write, a protection change,
//! a flush or a fault-plan trip from one side to the other.

use mvobj::Prot;
use mvvm::mem::Access;
use mvvm::{FaultOp, FaultPlan, MemError, Memory, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// First page of the test window; one unmapped page below it is reachable.
const BASE_PAGE: u64 = 16;
/// Pages in the window. Pages are only ever mapped inside it, so
/// accesses near its edges cover unmapped neighbours.
const WINDOW: u64 = 6;

const NONE: Prot = Prot {
    read: false,
    write: false,
    exec: false,
};

#[derive(Clone, Debug)]
enum Op {
    Map { page: u64, pages: u64, prot: Prot },
    Mprotect { addr: u64, len: u64, prot: Prot },
    Read { addr: u64, len: usize },
    Write { addr: u64, len: usize, seed: u8 },
    WriteUnchecked { addr: u64, len: usize, seed: u8 },
    Fetch { addr: u64, len: usize },
    Flush { addr: u64, len: u64 },
    Fork,
}

/// The fault schedule both memories get (mirrors [`FaultPlan`]).
#[derive(Clone, Debug)]
struct PlanSpec {
    op: FaultOp,
    nth: u64,
    sticky: bool,
    range: Option<(u64, u64)>,
}

fn arb_prot() -> impl Strategy<Value = Prot> {
    prop_oneof![
        Just(Prot::R),
        Just(Prot::RW),
        Just(Prot::RX),
        Just(Prot::RWX),
        Just(NONE),
    ]
}

/// Addresses biased towards page boundaries: `page*PAGE_SIZE + delta`
/// for small signed deltas, or anywhere in the window.
fn arb_addr() -> impl Strategy<Value = u64> {
    let lo = (BASE_PAGE - 1) * PAGE_SIZE;
    let hi = (BASE_PAGE + WINDOW + 1) * PAGE_SIZE;
    prop_oneof![
        2 => (BASE_PAGE - 1..=BASE_PAGE + WINDOW, -16i64..16)
            .prop_map(|(p, d)| (p * PAGE_SIZE).wrapping_add_signed(d)),
        1 => lo..hi,
    ]
}

/// Zero, short, word-sized and multi-page lengths.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        1 => Just(0usize),
        4 => 1usize..=8,
        2 => 9usize..64,
        1 => 4000usize..9000,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (BASE_PAGE..BASE_PAGE + WINDOW, 0u64..3, arb_prot())
            .prop_map(|(page, pages, prot)| Op::Map { page, pages, prot }),
        2 => (arb_addr(), arb_len(), arb_prot())
            .prop_map(|(addr, len, prot)| Op::Mprotect { addr, len: len as u64, prot }),
        4 => (arb_addr(), arb_len()).prop_map(|(addr, len)| Op::Read { addr, len }),
        4 => (arb_addr(), arb_len(), any::<u8>())
            .prop_map(|(addr, len, seed)| Op::Write { addr, len, seed }),
        1 => (arb_addr(), arb_len(), any::<u8>())
            .prop_map(|(addr, len, seed)| Op::WriteUnchecked { addr, len, seed }),
        2 => (arb_addr(), prop_oneof![3 => 0usize..=16, 1 => 4090usize..4200])
            .prop_map(|(addr, len)| Op::Fetch { addr, len }),
        2 => (arb_addr(), arb_len()).prop_map(|(addr, len)| Op::Flush { addr, len: len as u64 }),
        1 => Just(Op::Fork),
    ]
}

/// An op and the memory it hits (an index taken modulo the number of
/// memories forked so far).
fn arb_step() -> impl Strategy<Value = (usize, Op)> {
    (0usize..8, arb_op())
}

fn arb_plan() -> impl Strategy<Value = Option<PlanSpec>> {
    let op = prop_oneof![
        Just(FaultOp::TextWrite),
        Just(FaultOp::Mprotect),
        Just(FaultOp::IcacheFlush),
    ];
    let range = prop_oneof![
        2 => Just(None),
        1 => (BASE_PAGE..BASE_PAGE + WINDOW, 1u64..3).prop_map(|(p, n)| {
            Some((p * PAGE_SIZE, (p + n) * PAGE_SIZE))
        }),
    ];
    prop_oneof![
        1 => Just(None),
        3 => (op, 1u64..6, any::<bool>(), range)
            .prop_map(|(op, nth, sticky, range)| Some(PlanSpec { op, nth, sticky, range })),
    ]
}

fn bytes(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_add(i as u8).wrapping_mul(31))
        .collect()
}

fn install(mem: &mut Memory, spec: &PlanSpec) {
    let mut plan = FaultPlan::new(spec.op, spec.nth);
    if spec.sticky {
        plan = plan.sticky();
    }
    if let Some((start, end)) = spec.range {
        plan = plan.in_range(start, end);
    }
    mem.set_fault_plan(plan);
}

#[derive(Clone)]
struct RefPage {
    bytes: Vec<u8>,
    prot: Prot,
    version: u64,
    text: bool,
    /// Whether any write has landed here (the real memory backs it then).
    written: bool,
}

impl RefPage {
    fn new(prot: Prot) -> RefPage {
        RefPage {
            bytes: vec![0; PAGE_SIZE as usize],
            prot,
            version: 0,
            text: prot.exec,
            written: false,
        }
    }
}

/// The naive reference: fully backed pages, byte-at-a-time checks.
#[derive(Clone, Default)]
struct Model {
    pages: BTreeMap<u64, RefPage>,
    epoch: u64,
    plan: Option<PlanSpec>,
    seen: u64,
    fired: u64,
}

impl Model {
    fn trips(&mut self, op: FaultOp, addr: u64) -> bool {
        let Some(plan) = &self.plan else {
            return false;
        };
        if plan.op != op || plan.range.is_some_and(|(s, e)| addr < s || addr >= e) {
            return false;
        }
        self.seen += 1;
        let hit = if plan.sticky {
            self.seen >= plan.nth
        } else {
            self.seen == plan.nth
        };
        self.fired += u64::from(hit);
        hit
    }

    fn pages_of(addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
        addr / PAGE_SIZE..=(addr + len - 1) / PAGE_SIZE
    }

    fn map(&mut self, page: u64, pages: u64, prot: Prot) {
        for p in page..page + pages {
            let pg = self.pages.entry(p).or_insert_with(|| RefPage::new(prot));
            pg.prot = prot;
            pg.text |= prot.exec;
        }
    }

    fn mprotect(&mut self, addr: u64, len: u64, prot: Prot) -> Result<u64, MemError> {
        if len == 0 {
            return Ok(0);
        }
        if let Some(p) = Self::pages_of(addr, len).find(|p| !self.pages.contains_key(p)) {
            return Err(MemError {
                addr: p * PAGE_SIZE,
                access: Access::Write,
                mapped: false,
            });
        }
        if self.trips(FaultOp::Mprotect, addr) {
            return Err(MemError {
                addr,
                access: Access::Write,
                mapped: true,
            });
        }
        for p in Self::pages_of(addr, len) {
            let pg = self.pages.get_mut(&p).unwrap();
            pg.prot = prot;
            pg.text |= prot.exec;
        }
        Ok(Self::pages_of(addr, len).count() as u64)
    }

    /// The first byte of `[addr, addr+len)` that `allowed` rejects.
    fn check(
        &self,
        addr: u64,
        len: usize,
        access: Access,
        allowed: impl Fn(Prot) -> bool,
    ) -> Result<(), MemError> {
        for a in addr..addr + len as u64 {
            match self.pages.get(&(a / PAGE_SIZE)) {
                Some(pg) if allowed(pg.prot) => {}
                found => {
                    return Err(MemError {
                        addr: a,
                        access,
                        mapped: found.is_some(),
                    })
                }
            }
        }
        Ok(())
    }

    fn byte(&self, a: u64) -> u8 {
        self.pages[&(a / PAGE_SIZE)].bytes[(a % PAGE_SIZE) as usize]
    }

    fn store(&mut self, a: u64, b: u8) {
        let pg = self.pages.get_mut(&(a / PAGE_SIZE)).unwrap();
        pg.bytes[(a % PAGE_SIZE) as usize] = b;
        pg.written = true;
    }

    fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        self.check(addr, len, Access::Read, |p| p.read)?;
        Ok((0..len as u64).map(|i| self.byte(addr + i)).collect())
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(addr, data.len(), Access::Write, |p| p.write)?;
        let text = (0..data.len() as u64).any(|i| self.pages[&((addr + i) / PAGE_SIZE)].text);
        if text && self.trips(FaultOp::TextWrite, addr) {
            return Err(MemError {
                addr,
                access: Access::Write,
                mapped: true,
            });
        }
        for (i, &b) in data.iter().enumerate() {
            self.store(addr + i as u64, b);
        }
        Ok(())
    }

    fn write_unchecked(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            self.pages
                .entry(a / PAGE_SIZE)
                .or_insert_with(|| RefPage::new(Prot::RW));
            self.store(a, b);
        }
    }

    fn fetch(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemError> {
        self.check(addr, 1, Access::Exec, |p| p.exec)?;
        Ok((0..len as u64)
            .map(|i| addr + i)
            .take_while(|a| {
                self.pages
                    .get(&(a / PAGE_SIZE))
                    .is_some_and(|p| p.prot.exec)
            })
            .map(|a| self.byte(a))
            .collect())
    }

    fn flush_icache(&mut self, addr: u64, len: u64) {
        if len == 0 || self.trips(FaultOp::IcacheFlush, addr) {
            return;
        }
        self.epoch += 1;
        for p in Self::pages_of(addr, len) {
            if let Some(pg) = self.pages.get_mut(&p) {
                pg.version += 1;
            }
        }
    }
}

/// Runs `ops` on the memories and their models, comparing every result
/// and then the whole observable state of each memory.
fn run(plan: &Option<PlanSpec>, ops: &[(usize, Op)]) -> Result<(), TestCaseError> {
    let mut mem = Memory::new();
    let mut model = Model::default();
    if let Some(spec) = plan {
        install(&mut mem, spec);
        model.plan = Some(spec.clone());
    }
    let mut worlds = vec![(mem, model)];
    for (step, (pick, op)) in ops.iter().enumerate() {
        let mut w = pick % worlds.len();
        if let Op::Fork = op {
            let child = (worlds[w].0.fork(), worlds[w].1.clone());
            prop_assert!(
                worlds.iter().all(|(m, _)| m.id() != child.0.id()),
                "a fork has a fresh identity"
            );
            worlds.push(child);
            w = worlds.len() - 1;
        }
        let (mem, model) = &mut worlds[w];
        step_one(mem, model, step, op)?;
    }
    for (w, (mem, model)) in worlds.iter_mut().enumerate() {
        check_state(mem, model).map_err(|e| TestCaseError::fail(format!("memory {w}: {e}")))?;
    }
    Ok(())
}

/// Applies `op` to one memory and its model and compares the results,
/// the flush epoch and the fault-plan trip counts.
fn step_one(
    mem: &mut Memory,
    model: &mut Model,
    step: usize,
    op: &Op,
) -> Result<(), TestCaseError> {
    match *op {
        Op::Map { page, pages, prot } => {
            mem.map(page * PAGE_SIZE, pages * PAGE_SIZE, prot);
            model.map(page, pages, prot);
        }
        Op::Mprotect { addr, len, prot } => {
            let got = mem.mprotect(addr, len, prot);
            prop_assert_eq!(
                got,
                model.mprotect(addr, len, prot),
                "step {}: {:?}",
                step,
                op
            );
        }
        Op::Read { addr, len } => {
            let got = mem.read_vec(addr, len);
            prop_assert_eq!(got, model.read(addr, len), "step {}: {:?}", step, op);
        }
        Op::Write { addr, len, seed } => {
            let data = bytes(len, seed);
            let got = mem.write(addr, &data);
            prop_assert_eq!(got, model.write(addr, &data), "step {}: {:?}", step, op);
        }
        Op::WriteUnchecked { addr, len, seed } => {
            let data = bytes(len, seed);
            mem.write_unchecked(addr, &data);
            model.write_unchecked(addr, &data);
        }
        Op::Fetch { addr, len } => {
            let mut buf = vec![0u8; len];
            let got = mem.fetch(addr, &mut buf).map(|n| buf[..n].to_vec());
            prop_assert_eq!(got, model.fetch(addr, len), "step {}: {:?}", step, op);
        }
        Op::Flush { addr, len } => {
            mem.flush_icache(addr, len);
            model.flush_icache(addr, len);
        }
        Op::Fork => {}
    }
    prop_assert_eq!(
        mem.flush_epoch(),
        model.epoch,
        "flush epoch after step {}",
        step
    );
    let trips = mem.fault_plan().map(|p| (p.seen(), p.fired()));
    prop_assert_eq!(
        trips,
        model.plan.as_ref().map(|_| (model.seen, model.fired)),
        "fault-plan trips after step {}: {:?}",
        step,
        op
    );
    Ok(())
}

/// Compares protections, code versions, bytes and backing of every page
/// in and around the window.
fn check_state(mem: &mut Memory, model: &Model) -> Result<(), TestCaseError> {
    // Lift protections below only after the schedule is gone.
    mem.clear_fault_plan();
    for p in BASE_PAGE - 2..BASE_PAGE + WINDOW + 5 {
        let addr = p * PAGE_SIZE;
        let pg = model.pages.get(&p);
        prop_assert_eq!(
            mem.prot_of(addr),
            pg.map(|pg| pg.prot),
            "prot of page {}",
            p
        );
        prop_assert_eq!(
            mem.code_version(addr),
            pg.map_or(0, |pg| pg.version),
            "version of page {}",
            p
        );
        prop_assert_eq!(
            mem.is_backed(addr),
            pg.is_some_and(|pg| pg.written),
            "backing of page {}",
            p
        );
        if let Some(pg) = pg {
            // Unbacked pages must read as the model's zeros, whatever
            // their protection: lift it to compare.
            mem.mprotect(addr, PAGE_SIZE, Prot::R).unwrap();
            prop_assert_eq!(
                mem.read_vec(addr, PAGE_SIZE as usize).unwrap(),
                pg.bytes.clone(),
                "page {}",
                p
            );
        }
    }
    let written = model.pages.values().filter(|pg| pg.written).count();
    prop_assert_eq!(mem.backed_pages(), written, "backed pages");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Every operation agrees with the byte-at-a-time reference model.
    #[test]
    fn memory_matches_reference_model(
        plan in arb_plan(),
        ops in proptest::collection::vec(arb_step(), 1..60),
    ) {
        run(&plan, &ops)?;
    }
}

/// Never-written pages read and fetch as zeros and stay unbacked; a
/// failed write backs nothing.
#[test]
fn never_written_pages_read_as_zero() {
    let mut mem = Memory::new();
    mem.map(BASE_PAGE * PAGE_SIZE, 3 * PAGE_SIZE, Prot::RX);
    let addr = BASE_PAGE * PAGE_SIZE + PAGE_SIZE - 4;
    assert_eq!(mem.read_vec(addr, 8).unwrap(), vec![0; 8]);
    let mut buf = [0xffu8; 16];
    assert_eq!(mem.fetch(addr, &mut buf), Ok(16));
    assert_eq!(buf, [0; 16]);
    assert!(mem.write(addr, &[1; 8]).is_err());
    assert_eq!(mem.backed_pages(), 0);
    mem.mprotect(BASE_PAGE * PAGE_SIZE, 3 * PAGE_SIZE, Prot::RW)
        .unwrap();
    mem.write(addr, &[1; 8]).unwrap();
    assert_eq!(mem.backed_pages(), 2, "a straddling write backs both pages");
}

/// An access running past the top of the address space is a typed
/// fault, not a panic or a wrapped access.
#[test]
fn access_past_the_top_faults() {
    let mut mem = Memory::new();
    let top = u64::MAX - 3;
    let err = mem.read_vec(top, 8).unwrap_err();
    assert_eq!(
        (err.addr, err.access, err.mapped),
        (top, Access::Read, false)
    );
    assert!(mem.write(top, &[0; 8]).is_err());
    assert_eq!(
        mem.read_uint(u64::MAX - 7, 8).unwrap_err().addr,
        u64::MAX - 7
    );
}
