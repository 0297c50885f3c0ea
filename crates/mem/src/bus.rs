//! The shared system bus and its pluggable arbiter.
//!
//! One transaction occupies the bus at a time; every in-flight request
//! from another port waits. This serialization is the physical source of
//! the paper's multi-core nondeterminism: instruction fetches are delayed
//! by the other cores' traffic, so the exact stream of instructions
//! entering each pipeline depends on global interleaving. *Which* ports
//! delay which is the arbitration policy — see [`Arbiter`](crate::Arbiter)
//! — and the analytical interference bounds in [`bounds`](crate::bounds)
//! are derived per policy from this bus's timing parameters.

use crate::arbiter::{Arbiter, ArbiterKind};
use crate::bounds::BoundParams;
use crate::flash::FlashCtl;
use crate::map::{Region, MMIO_BASE};
use crate::sram::Sram;
use crate::watchdog::Watchdog;
use sbst_obs::BusObs;

/// Maximum burst length in words (one 32-byte cache line).
pub const MAX_BURST: usize = 8;

/// What a bus transaction does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Read `burst` consecutive words.
    Read,
    /// Write one word.
    Write(u32),
    /// Atomic swap: write the payload, return the old word.
    Swap(u32),
}

/// A request presented on one bus port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusRequest {
    /// Operation.
    pub kind: ReqKind,
    /// Word-aligned byte address of the first word.
    pub addr: u32,
    /// Burst length in words (1 for writes/swaps).
    pub burst: u8,
}

impl BusRequest {
    /// Single-word read.
    pub fn read(addr: u32) -> BusRequest {
        BusRequest { kind: ReqKind::Read, addr, burst: 1 }
    }

    /// Burst read of `burst` words (e.g. a cache-line fill).
    pub fn read_burst(addr: u32, burst: u8) -> BusRequest {
        BusRequest { kind: ReqKind::Read, addr, burst }
    }

    /// Single-word write.
    pub fn write(addr: u32, value: u32) -> BusRequest {
        BusRequest { kind: ReqKind::Write(value), addr, burst: 1 }
    }

    /// Atomic swap.
    pub fn swap(addr: u32, value: u32) -> BusRequest {
        BusRequest { kind: ReqKind::Swap(value), addr, burst: 1 }
    }
}

/// Data returned on transaction completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusResponse {
    data: [u32; MAX_BURST],
    len: u8,
}

impl BusResponse {
    /// First (or only) data word.
    pub fn word(&self) -> u32 {
        self.data[0]
    }

    /// All returned words.
    pub fn words(&self) -> &[u32] {
        &self.data[..self.len as usize]
    }
}

/// Aggregate and per-port bus statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Completed transactions.
    pub transactions: u64,
    /// Cycles the bus was occupied by a transaction.
    pub busy_cycles: u64,
    /// Per-port cycles spent waiting for a grant (summed over requests).
    pub wait_cycles: Vec<u64>,
    /// Per-port grants (transactions started).
    pub grants: Vec<u64>,
    /// Per-port worst-case wait of a *single* request before its grant —
    /// the contention figure chaos-campaign reports quantify injected
    /// interference with.
    pub max_grant_wait: Vec<u64>,
}

impl BusStats {
    /// Mean grant latency of `port` in cycles (0 when never granted, or
    /// when `port` is out of range — report code iterates heterogeneous
    /// port counts across scenario axes and must not panic on the
    /// narrower configurations).
    pub fn mean_grant_wait(&self, port: usize) -> f64 {
        match self.grants.get(port) {
            None | Some(0) => 0.0,
            Some(&g) => self.wait_cycles[port] as f64 / g as f64,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Active {
    port: usize,
    remaining: u32,
    resp: BusResponse,
}

/// One granted bus transaction, as recorded by the optional operation
/// tap: which port moved what kind of access over which addresses. The
/// data phase commits at grant time (see [`Bus::step`]), so the grant
/// stream is exactly the memory-effect stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusOp {
    /// Master port granted.
    pub port: usize,
    /// Operation (with write/swap payload).
    pub kind: ReqKind,
    /// Word-aligned byte address of the first word.
    pub addr: u32,
    /// Burst length in words.
    pub burst: u8,
}

impl BusOp {
    /// Word addresses the transaction touches:
    /// `addr, addr+4, .., addr + 4*(burst-1)`.
    pub fn words(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.burst as u32).map(move |i| self.addr + 4 * i)
    }
}

/// The shared system bus: Flash + SRAM slaves, N master ports, a
/// pluggable arbiter (round-robin by default), one transaction in
/// flight.
///
/// Protocol, from a master's point of view:
/// 1. [`request`](Bus::request) — present a request on your port
///    (panics if the port already has one in flight);
/// 2. call [`step`](Bus::step) once per cycle (the SoC does this);
/// 3. poll [`response`](Bus::response) until it yields the data.
#[derive(Debug, Clone)]
pub struct Bus {
    flash: FlashCtl,
    sram: Sram,
    watchdog: Watchdog,
    pending: Vec<Option<BusRequest>>,
    responses: Vec<Option<BusResponse>>,
    active: Option<Active>,
    arbiter: Box<dyn Arbiter>,
    /// Bus-local cycle counter (drives the TDMA slot table).
    cycle: u64,
    stats: BusStats,
    /// Cycles each port's *current* pending request has waited so far.
    cur_wait: Vec<u64>,
    /// Optional observer — strictly read-only w.r.t. bus behaviour; when
    /// `None` (the default) the only cost is one branch per hook site.
    obs: Option<Box<BusObs>>,
    /// Grant-stream tap (see [`BusOp`]); `None` = recording off.
    ops: Option<Vec<BusOp>>,
}

impl Bus {
    /// Creates a bus with `ports` master ports and the default
    /// round-robin arbiter (bit-identical to the seed behaviour).
    pub fn new(flash: FlashCtl, sram: Sram, ports: usize) -> Bus {
        Bus::with_arbiter(flash, sram, ports, ArbiterKind::RoundRobin)
    }

    /// Creates a bus with `ports` master ports and an explicit
    /// arbitration policy.
    ///
    /// # Panics
    ///
    /// Panics for a TDMA arbiter whose explicit slot is shorter than
    /// this bus's worst-case transaction latency (see
    /// [`BoundParams::t_max`]).
    pub fn with_arbiter(
        flash: FlashCtl,
        sram: Sram,
        ports: usize,
        kind: ArbiterKind,
    ) -> Bus {
        let t_max = BoundParams {
            ports,
            arbiter: kind,
            flash: flash.timing(),
            sram_latency: sram.access_cycles(),
        }
        .t_max();
        Bus {
            flash,
            sram,
            watchdog: Watchdog::new(),
            pending: vec![None; ports],
            responses: vec![None; ports],
            active: None,
            arbiter: kind.build(ports, t_max),
            cycle: 0,
            stats: BusStats {
                wait_cycles: vec![0; ports],
                grants: vec![0; ports],
                max_grant_wait: vec![0; ports],
                ..BusStats::default()
            },
            cur_wait: vec![0; ports],
            obs: None,
            ops: None,
        }
    }

    /// The arbitration policy this bus was built with (after TDMA slot
    /// derivation, so `Tdma { slot_cycles }` carries the real slot).
    pub fn arbiter_kind(&self) -> ArbiterKind {
        self.arbiter.kind()
    }

    /// The parameters the analytical interference bounds are computed
    /// from: this bus's port count, arbitration policy and slave
    /// timings.
    pub fn bound_params(&self) -> BoundParams {
        BoundParams {
            ports: self.ports(),
            arbiter: self.arbiter.kind(),
            flash: self.flash.timing(),
            sram_latency: self.sram.access_cycles(),
        }
    }

    /// Attaches an observer recording per-port grant latencies and bus
    /// events. Observation never changes bus behaviour.
    pub fn attach_obs(&mut self, obs: BusObs) {
        self.obs = Some(Box::new(obs));
    }

    /// The attached observer, if any.
    pub fn obs(&self) -> Option<&BusObs> {
        self.obs.as_deref()
    }

    /// Number of master ports.
    pub fn ports(&self) -> usize {
        self.pending.len()
    }

    /// Presents `req` on `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port already has a request in flight or an untaken
    /// response, if the address is unaligned, or if the burst length is
    /// 0 or exceeds [`MAX_BURST`].
    pub fn request(&mut self, port: usize, req: BusRequest) {
        assert!(self.pending[port].is_none(), "port {port} already has a request");
        assert!(self.responses[port].is_none(), "port {port} has an untaken response");
        assert_eq!(req.addr % 4, 0, "unaligned bus address {:#x}", req.addr);
        assert!((1..=MAX_BURST as u8).contains(&req.burst), "bad burst {}", req.burst);
        if let Some(obs) = &mut self.obs {
            obs.on_request(port);
        }
        self.pending[port] = Some(req);
    }

    /// Whether `port` has a request in flight (waiting or being served).
    pub fn port_busy(&self, port: usize) -> bool {
        self.pending[port].is_some()
            || self.active.as_ref().is_some_and(|a| a.port == port)
    }

    /// Takes the completed response for `port`, if any.
    pub fn response(&mut self, port: usize) -> Option<BusResponse> {
        self.responses[port].take()
    }

    /// Advances the bus by one clock cycle.
    pub fn step(&mut self) {
        self.watchdog.tick();
        // Arbitrate first: the grant cycle is the first cycle of the
        // access, so an uncontended single-word SRAM read completes in
        // exactly `access_cycles` steps.
        if self.active.is_none() {
            let mask: Vec<bool> = self.pending.iter().map(Option::is_some).collect();
            if let Some(port) = self.arbiter.grant(&mask, self.cycle) {
                let req = self.pending[port].take().expect("arbiter granted an idle port");
                self.stats.grants[port] += 1;
                self.stats.max_grant_wait[port] =
                    self.stats.max_grant_wait[port].max(self.cur_wait[port]);
                if let Some(obs) = &mut self.obs {
                    let write = matches!(req.kind, ReqKind::Write(_) | ReqKind::Swap(_));
                    obs.on_grant(port, self.cur_wait[port], req.addr, write);
                }
                self.cur_wait[port] = 0;
                if let Some(ops) = &mut self.ops {
                    ops.push(BusOp { port, kind: req.kind, addr: req.addr, burst: req.burst });
                }
                let (latency, resp) = self.execute(req);
                self.active = Some(Active { port, remaining: latency.max(1), resp });
            }
        }
        // Progress the active transaction.
        if let Some(a) = &mut self.active {
            self.stats.busy_cycles += 1;
            a.remaining -= 1;
            if a.remaining == 0 {
                let a = self.active.take().expect("checked");
                self.responses[a.port] = Some(a.resp);
                self.stats.transactions += 1;
            }
        }
        // Requests still pending after arbitration are waiting for
        // grant. `max_grant_wait` is folded in *continuously*, not only
        // at grant time, so a starved port (fixed-priority under a
        // saturating higher-priority master) reports its ever-growing
        // wait instead of 0 — the bound watchdog feeds on this figure.
        for (p, r) in self.pending.iter().enumerate() {
            if r.is_some() {
                self.stats.wait_cycles[p] += 1;
                self.cur_wait[p] += 1;
                self.stats.max_grant_wait[p] =
                    self.stats.max_grant_wait[p].max(self.cur_wait[p]);
            }
        }
        if let Some(obs) = &mut self.obs {
            obs.tick();
        }
        self.cycle += 1;
    }

    /// Flips `bit` of one data word of the transaction currently in
    /// flight — the bus half of the SEU model (a glitch on the data
    /// lines while a transfer is mid-burst). `word_pick` is reduced
    /// modulo the transfer length. Returns `false` (strike absorbed)
    /// when the bus is idle.
    pub fn corrupt_in_flight(&mut self, word_pick: u64, bit: u32) -> bool {
        match &mut self.active {
            Some(a) if a.resp.len > 0 => {
                let w = (word_pick % a.resp.len as u64) as usize;
                a.resp.data[w] ^= 1 << (bit % 32);
                true
            }
            _ => false,
        }
    }

    /// Performs the data-phase of a transaction and returns its latency.
    fn execute(&mut self, req: BusRequest) -> (u32, BusResponse) {
        let mut resp = BusResponse { data: [0; MAX_BURST], len: req.burst };
        let region = Region::of(req.addr);
        let latency = match (region, req.kind) {
            (Region::Flash, ReqKind::Read) => {
                let mut lat = self.flash.access(req.addr);
                for i in 0..req.burst as u32 {
                    let a = req.addr + i * 4;
                    if i > 0 {
                        // Burst beats cost one cycle each and advance the
                        // prefetch row buffers as a side effect.
                        let _ = self.flash.access(a);
                        lat += 1;
                    }
                    resp.data[i as usize] = self.flash.word_at(a);
                }
                lat
            }
            // Flash is ROM at runtime: writes are acknowledged and dropped,
            // swaps return the old value without modifying anything.
            (Region::Flash, ReqKind::Write(_)) => self.flash.access(req.addr),
            (Region::Flash, ReqKind::Swap(_)) => {
                resp.data[0] = self.flash.word_at(req.addr);
                self.flash.access(req.addr)
            }
            (Region::Sram, ReqKind::Read) => {
                for i in 0..req.burst as u32 {
                    resp.data[i as usize] = self.sram.read(req.addr + i * 4);
                }
                self.sram.access_cycles() + (req.burst as u32 - 1)
            }
            (Region::Sram, ReqKind::Write(v)) => {
                self.sram.write(req.addr, v);
                self.sram.access_cycles()
            }
            (Region::Sram, ReqKind::Swap(v)) => {
                resp.data[0] = self.sram.read(req.addr);
                self.sram.write(req.addr, v);
                self.sram.access_cycles() + 1
            }
            (Region::Mmio, ReqKind::Read) => {
                for i in 0..req.burst as u32 {
                    resp.data[i as usize] =
                        self.watchdog.read(req.addr - MMIO_BASE + i * 4);
                }
                2
            }
            (Region::Mmio, ReqKind::Write(v)) => {
                self.watchdog.write(req.addr - MMIO_BASE, v);
                2
            }
            (Region::Mmio, ReqKind::Swap(v)) => {
                resp.data[0] = self.watchdog.read(req.addr - MMIO_BASE);
                self.watchdog.write(req.addr - MMIO_BASE, v);
                2
            }
            // TCMs are not bus slaves; unmapped reads return zeros.
            _ => 1,
        };
        (latency, resp)
    }

    /// Turns the grant-stream tap on or off. While on, every granted
    /// transaction is appended to an internal log drained with
    /// [`take_ops`](Bus::take_ops). Recording never changes behaviour.
    pub fn record_ops(&mut self, enable: bool) {
        self.ops = enable.then(Vec::new);
    }

    /// Drains the recorded grant stream (empty when recording is off).
    pub fn take_ops(&mut self) -> Vec<BusOp> {
        match &mut self.ops {
            Some(ops) => std::mem::take(ops),
            None => Vec::new(),
        }
    }

    /// Behavioral-state equality, for the campaign's loop proof:
    /// pending/active/response latches, SRAM and Flash-row contents,
    /// watchdog configuration and arbiter state. Excluded on purpose:
    /// statistics, per-port wait counters, the observer/tap, and the
    /// free-running `cycle` counter (monotone; it only influences
    /// arbitration under TDMA, which callers must gate on via
    /// [`arbiter_kind`](Bus::arbiter_kind)).
    pub fn state_eq(&self, other: &Bus) -> bool {
        self.pending == other.pending
            && self.responses == other.responses
            && self.active == other.active
            && self.sram.state_eq(&other.sram)
            && self.flash.state_eq(&other.flash)
            && self.watchdog.config_eq(&other.watchdog)
            && self.arbiter.kind() == other.arbiter.kind()
            && self.arbiter.state_sig() == other.arbiter.state_sig()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Direct harness access to the SRAM slave (no bus traffic).
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Mutable harness access to the SRAM slave (no bus traffic).
    pub fn sram_mut(&mut self) -> &mut Sram {
        &mut self.sram
    }

    /// Direct harness access to the Flash controller.
    pub fn flash(&self) -> &FlashCtl {
        &self.flash
    }

    /// The watchdog peripheral.
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Harness access to the watchdog (e.g. to model boot-ROM arming
    /// before the self-test code runs).
    pub fn watchdog_mut(&mut self) -> &mut Watchdog {
        &mut self.watchdog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::{FlashImage, FlashTiming};
    use crate::map::SRAM_BASE;
    use sbst_isa::{Asm, Reg};

    fn bus(ports: usize) -> Bus {
        let mut img = FlashImage::new();
        let mut a = Asm::new();
        for i in 0..16 {
            a.addi(Reg::R1, Reg::R0, i);
        }
        img.load(&a.assemble(0x100).unwrap());
        Bus::new(
            FlashCtl::new(img.freeze(), FlashTiming::default()),
            Sram::default(),
            ports,
        )
    }

    fn run_to_response(bus: &mut Bus, port: usize, max: u32) -> (u32, BusResponse) {
        for cycle in 1..=max {
            bus.step();
            if let Some(r) = bus.response(port) {
                return (cycle, r);
            }
        }
        panic!("no response after {max} cycles");
    }

    #[test]
    fn flash_read_latency_and_data() {
        let mut b = bus(1);
        b.request(0, BusRequest::read(0x100));
        let (cycles, r) = run_to_response(&mut b, 0, 100);
        assert_eq!(cycles, 8);
        assert_eq!(r.word(), sbst_isa::Instr::AluImm {
            op: sbst_isa::AluOp::Add,
            rd: Reg::R1,
            rs1: Reg::R0,
            imm: 0
        }
        .encode());
    }

    #[test]
    fn sram_write_then_read() {
        let mut b = bus(1);
        b.request(0, BusRequest::write(SRAM_BASE + 8, 77));
        run_to_response(&mut b, 0, 100);
        b.request(0, BusRequest::read(SRAM_BASE + 8));
        let (cycles, r) = run_to_response(&mut b, 0, 100);
        assert_eq!(cycles, 4);
        assert_eq!(r.word(), 77);
    }

    #[test]
    fn swap_returns_old_value() {
        let mut b = bus(1);
        b.sram_mut().poke(SRAM_BASE, 5);
        b.request(0, BusRequest::swap(SRAM_BASE, 9));
        let (_, r) = run_to_response(&mut b, 0, 100);
        assert_eq!(r.word(), 5);
        assert_eq!(b.sram().peek(SRAM_BASE), 9);
    }

    #[test]
    fn contention_serializes_and_round_robin_is_fair() {
        let mut b = bus(3);
        for p in 0..3 {
            b.request(p, BusRequest::read(0x100 + 0x40 * p as u32));
        }
        let mut completion = vec![];
        for cycle in 1..=100 {
            b.step();
            for p in 0..3 {
                if b.response(p).is_some() {
                    completion.push((p, cycle));
                }
            }
            if completion.len() == 3 {
                break;
            }
        }
        assert_eq!(completion.len(), 3);
        // Ports complete strictly one after another (serialized).
        assert!(completion[0].1 < completion[1].1);
        assert!(completion[1].1 < completion[2].1);
        // Everyone eventually got served.
        let served: Vec<usize> = completion.iter().map(|&(p, _)| p).collect();
        let mut sorted = served.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        // Later ports accumulated wait cycles.
        assert!(b.stats().wait_cycles.iter().sum::<u64>() > 0);
        // Every port was granted exactly once and the grant-latency
        // counters saw the serialization: the last-served port's worst
        // single wait equals its total wait (one request each).
        assert_eq!(b.stats().grants, vec![1, 1, 1]);
        for p in 0..3 {
            assert_eq!(b.stats().max_grant_wait[p], b.stats().wait_cycles[p]);
        }
        assert!(b.stats().max_grant_wait.iter().any(|&w| w > 0));
    }

    #[test]
    fn grant_wait_tracks_worst_single_request() {
        let mut b = bus(2);
        // Round-robin grants port 1 first (rr starts at 0), so port 0's
        // single request waits out one whole flash access.
        b.request(0, BusRequest::read(0x100));
        b.request(1, BusRequest::read(0x140));
        while b.response(0).is_none() {
            b.step();
        }
        assert_eq!(b.stats().grants[0], 1);
        assert!(b.stats().max_grant_wait[0] >= 7, "{:?}", b.stats());
        assert!((b.stats().mean_grant_wait(0) - b.stats().wait_cycles[0] as f64).abs() < 1e-9);
        // The first-granted port saw no contention.
        assert_eq!(b.stats().max_grant_wait[1], 0);
        assert_eq!(b.stats().mean_grant_wait(1), 0.0);
    }

    #[test]
    fn corrupt_in_flight_flips_one_response_bit() {
        let mut b = bus(1);
        b.sram_mut().poke(SRAM_BASE, 0xff00);
        b.request(0, BusRequest::read(SRAM_BASE));
        b.step(); // grant + execute: response data now in flight
        assert!(b.corrupt_in_flight(0, 3));
        let (_, r) = run_to_response(&mut b, 0, 100);
        assert_eq!(r.word(), 0xff00 ^ 0b1000);
        // Memory itself is untouched — the glitch was on the wire.
        assert_eq!(b.sram().peek(SRAM_BASE), 0xff00);
        // Idle bus absorbs the strike.
        assert!(!b.corrupt_in_flight(0, 3));
    }

    #[test]
    fn burst_read_returns_all_words() {
        let mut b = bus(1);
        b.request(0, BusRequest::read_burst(0x100, 4));
        let (cycles, r) = run_to_response(&mut b, 0, 100);
        assert_eq!(r.words().len(), 4);
        assert!(cycles > 8, "burst costs more than a single beat");
        for (i, w) in r.words().iter().enumerate() {
            let d = sbst_isa::Instr::decode(*w).unwrap();
            assert_eq!(
                d,
                sbst_isa::Instr::AluImm {
                    op: sbst_isa::AluOp::Add,
                    rd: Reg::R1,
                    rs1: Reg::R0,
                    imm: i as i16
                }
            );
        }
    }

    #[test]
    #[should_panic(expected = "already has a request")]
    fn double_request_panics() {
        let mut b = bus(1);
        b.request(0, BusRequest::read(0x100));
        b.request(0, BusRequest::read(0x104));
    }

    #[test]
    fn unmapped_read_returns_zero() {
        let mut b = bus(1);
        b.request(0, BusRequest::read(0xf000_0000));
        let (_, r) = run_to_response(&mut b, 0, 10);
        assert_eq!(r.word(), 0);
    }

    /// The arbiter-specificity regression: a saturating master on the
    /// top fixed-priority port starves the low-priority port past the
    /// bound certified for round-robin — proof that the bound is a
    /// property of the policy, not of the bus, and that a starved
    /// port's growing wait is visible in `max_grant_wait` even though
    /// it is never granted.
    #[test]
    fn fixed_priority_starvation_exceeds_the_round_robin_bound() {
        let mut img = FlashImage::new();
        let mut a = Asm::new();
        for i in 0..16 {
            a.addi(Reg::R1, Reg::R0, i);
        }
        img.load(&a.assemble(0x100).unwrap());
        let mut b = Bus::with_arbiter(
            FlashCtl::new(img.freeze(), FlashTiming::default()),
            Sram::default(),
            2,
            ArbiterKind::FixedPriority { ascending: false },
        );
        let rr_bound = BoundParams { arbiter: ArbiterKind::RoundRobin, ..b.bound_params() }
            .per_access_wcl(0)
            .cycles()
            .expect("round-robin is bounded");
        b.request(0, BusRequest::read(0x100));
        for _ in 0..500 {
            // Port 1 (top priority) re-files the instant it is free.
            if !b.port_busy(1) {
                let _ = b.response(1);
                b.request(1, BusRequest::read(0x140));
            }
            b.step();
        }
        assert_eq!(b.stats().grants[0], 0, "low-priority port never granted");
        assert!(
            b.stats().max_grant_wait[0] > rr_bound,
            "starved wait {} must exceed the round-robin bound {rr_bound}",
            b.stats().max_grant_wait[0]
        );
        // The honest certificate for this platform flags the port.
        assert_eq!(b.bound_params().per_access_wcl(0), sbst_obs::PortBound::Unbounded);
    }

    #[test]
    fn port_busy_tracks_lifecycle() {
        let mut b = bus(2);
        assert!(!b.port_busy(0));
        b.request(0, BusRequest::read(0x100));
        assert!(b.port_busy(0));
        let _ = run_to_response(&mut b, 0, 100);
        assert!(!b.port_busy(0));
    }
}
