//! The load/store unit: data cache, write-through buffer, TCM and bus
//! access.
//!
//! Stores are write-through with a posted write buffer: a store completes
//! in the MEM stage as soon as the (possibly missing) cache part is
//! handled, and the memory write drains over the bus in the background.
//! In the cache-based wrapper's *execution loop* every access hits, so
//! the core never waits on the contended bus — the mechanism behind the
//! paper's deterministic execution.

use std::collections::VecDeque;

use sbst_mem::{Bus, BusRequest, Cache, CacheConfig, Region, Tcm, WritePolicy};

/// Kind of a data-memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// Word load.
    Load,
    /// Word store.
    Store,
    /// Atomic swap (returns the old word).
    Swap,
}

/// A data-memory operation issued by the MEM stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Operation kind.
    pub kind: MemOpKind,
    /// Word-aligned effective address (alignment is checked in EX).
    pub addr: u32,
    /// Store/swap payload.
    pub wdata: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    None,
    /// Background write-buffer drain in flight.
    Drain,
    /// Foreground single-word read.
    Read,
    /// Foreground line fill; optionally merge a store after the fill.
    Fill { addr: u32, merge: Option<(u32, u32)> },
    /// Foreground atomic swap.
    Swap,
}

/// The LSU of one core.
#[derive(Debug, Clone)]
pub struct Lsu {
    dcache: Option<Cache>,
    wbuf: VecDeque<(u32, u32)>,
    wbuf_depth: usize,
    pending: Pending,
    current: Option<MemOp>,
    result: Option<u32>,
    port: usize,
}

impl Lsu {
    /// Creates an LSU on bus port `port` with a `wbuf_depth`-entry write
    /// buffer.
    pub fn new(dcache: Option<CacheConfig>, wbuf_depth: usize, port: usize) -> Lsu {
        assert!(wbuf_depth >= 1);
        Lsu {
            dcache: dcache.map(Cache::new),
            wbuf: VecDeque::new(),
            wbuf_depth,
            pending: Pending::None,
            current: None,
            result: None,
            port,
        }
    }

    /// The data cache, if enabled.
    pub fn dcache(&self) -> Option<&Cache> {
        self.dcache.as_ref()
    }

    /// Mutable data cache (for `dcinv`).
    pub fn dcache_mut(&mut self) -> Option<&mut Cache> {
        self.dcache.as_mut()
    }

    /// Starts a foreground operation.
    ///
    /// # Panics
    ///
    /// Panics if one is already in progress.
    pub fn start(&mut self, op: MemOp) {
        assert!(self.current.is_none(), "LSU already busy");
        self.current = Some(op);
    }

    /// Whether a foreground operation is in progress.
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// Takes the completed foreground result (load data, swap old value,
    /// or 0 for stores).
    pub fn take_result(&mut self) -> Option<u32> {
        if self.result.is_some() {
            self.current = None;
        }
        self.result.take()
    }

    /// Whether the LSU holds no state that could still touch memory.
    pub fn quiescent(&self) -> bool {
        self.current.is_none() && self.wbuf.is_empty() && self.pending == Pending::None
    }

    /// Behavioral-state equality (the loop proof): write buffer,
    /// in-flight operation and cache contents; cache statistics are
    /// ignored.
    pub fn state_eq(&self, other: &Lsu) -> bool {
        self.wbuf == other.wbuf
            && self.pending == other.pending
            && self.current == other.current
            && self.result == other.result
            && match (&self.dcache, &other.dcache) {
                (Some(a), Some(b)) => a.state_eq(b),
                (None, None) => true,
                _ => false,
            }
    }

    /// Advances the LSU by one cycle.
    pub fn cycle(&mut self, bus: &mut Bus, itcm: &mut Tcm, dtcm: &mut Tcm) {
        // 1. Collect any bus response.
        if self.pending != Pending::None {
            if let Some(resp) = bus.response(self.port) {
                match self.pending {
                    Pending::Drain => {
                        self.wbuf.pop_front();
                    }
                    Pending::Read => self.result = Some(resp.word()),
                    Pending::Swap => self.result = Some(resp.word()),
                    Pending::Fill { addr, merge } => {
                        let dc = self.dcache.as_mut().expect("fill without dcache");
                        dc.fill(dc.line_base(addr), resp.words());
                        match merge {
                            Some((a, v)) => {
                                dc.write(a, v);
                                self.push_wbuf(a, v);
                                self.result = Some(0);
                            }
                            None => {
                                self.result =
                                    Some(dc.probe(addr).expect("line just filled"));
                            }
                        }
                    }
                    Pending::None => unreachable!(),
                }
                self.pending = Pending::None;
            }
        }
        // 2. Foreground progress.
        if self.result.is_none() {
            if let Some(op) = self.current {
                self.progress(op, bus, itcm, dtcm);
            }
        }
        // 3. Background drain when the port is free.
        if self.pending == Pending::None {
            if let Some(&(addr, value)) = self.wbuf.front() {
                bus.request(self.port, BusRequest::write(addr, value));
                self.pending = Pending::Drain;
            }
        }
    }

    fn push_wbuf(&mut self, addr: u32, value: u32) {
        debug_assert!(self.wbuf.len() < self.wbuf_depth);
        self.wbuf.push_back((addr, value));
    }

    /// Latest write-buffer entry matching `addr` (store-to-load
    /// forwarding).
    fn wbuf_forward(&self, addr: u32) -> Option<u32> {
        self.wbuf.iter().rev().find(|&&(a, _)| a == addr).map(|&(_, v)| v)
    }

    fn progress(&mut self, op: MemOp, bus: &mut Bus, itcm: &mut Tcm, dtcm: &mut Tcm) {
        // TCMs: single-cycle, core-private.
        let region = Region::of(op.addr);
        if region.is_private() {
            let tcm = if region == Region::Itcm { itcm } else { dtcm };
            if !tcm.contains(op.addr) {
                self.result = Some(0);
                return;
            }
            self.result = Some(match op.kind {
                MemOpKind::Load => tcm.read(op.addr),
                MemOpKind::Store => {
                    tcm.write(op.addr, op.wdata);
                    0
                }
                MemOpKind::Swap => {
                    let old = tcm.read(op.addr);
                    tcm.write(op.addr, op.wdata);
                    old
                }
            });
            return;
        }
        match op.kind {
            MemOpKind::Load => {
                if let Some(v) = self.wbuf_forward(op.addr) {
                    self.result = Some(v);
                    return;
                }
                if let Some(dc) = self.dcache.as_mut() {
                    if let Some(v) = dc.read(op.addr) {
                        self.result = Some(v);
                        return;
                    }
                    // Line fill; drain older stores first so the fill
                    // cannot read stale memory.
                    if self.wbuf.is_empty() && self.pending == Pending::None {
                        let (base, burst) = {
                            let dc = self.dcache.as_ref().expect("checked");
                            (dc.line_base(op.addr), dc.config().line_words() as u8)
                        };
                        bus.request(self.port, BusRequest::read_burst(base, burst));
                        self.pending = Pending::Fill { addr: op.addr, merge: None };
                    }
                    // else: wait; the drain logic below us empties the buffer.
                } else if self.pending == Pending::None {
                    bus.request(self.port, BusRequest::read(op.addr));
                    self.pending = Pending::Read;
                }
            }
            MemOpKind::Store => {
                if self.wbuf.len() >= self.wbuf_depth {
                    return; // buffer full: stall until a drain completes
                }
                match self.dcache.as_mut() {
                    Some(dc) => {
                        if dc.write(op.addr, op.wdata) {
                            self.push_wbuf(op.addr, op.wdata);
                            self.result = Some(0);
                        } else {
                            match dc.config().policy {
                                WritePolicy::NoWriteAllocate => {
                                    self.push_wbuf(op.addr, op.wdata);
                                    self.result = Some(0);
                                }
                                WritePolicy::WriteAllocate => {
                                    if self.wbuf.is_empty()
                                        && self.pending == Pending::None
                                    {
                                        let (base, burst) = {
                                            let dc = self.dcache.as_ref().expect("checked");
                                            (
                                                dc.line_base(op.addr),
                                                dc.config().line_words() as u8,
                                            )
                                        };
                                        bus.request(
                                            self.port,
                                            BusRequest::read_burst(base, burst),
                                        );
                                        self.pending = Pending::Fill {
                                            addr: op.addr,
                                            merge: Some((op.addr, op.wdata)),
                                        };
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        self.push_wbuf(op.addr, op.wdata);
                        self.result = Some(0);
                    }
                }
            }
            MemOpKind::Swap => {
                // Swaps are strongly ordered: drain everything first.
                if self.wbuf.is_empty() && self.pending == Pending::None {
                    bus.request(self.port, BusRequest::swap(op.addr, op.wdata));
                    self.pending = Pending::Swap;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_mem::{FlashCtl, FlashImage, FlashTiming, Sram, DTCM_BASE, ITCM_BASE, SRAM_BASE};

    fn rig(dcache: Option<CacheConfig>) -> (Lsu, Bus, Tcm, Tcm) {
        let bus = Bus::new(
            FlashCtl::new(FlashImage::new().freeze(), FlashTiming::default()),
            Sram::default(),
            1,
        );
        (Lsu::new(dcache, 4, 0), bus, Tcm::new(ITCM_BASE), Tcm::new(DTCM_BASE))
    }

    fn run_op(
        lsu: &mut Lsu,
        bus: &mut Bus,
        itcm: &mut Tcm,
        dtcm: &mut Tcm,
        op: MemOp,
        max: u32,
    ) -> (u32, u32) {
        lsu.start(op);
        for cycle in 1..=max {
            lsu.cycle(bus, itcm, dtcm);
            if let Some(v) = lsu.take_result() {
                return (cycle, v);
            }
            bus.step();
        }
        panic!("op {op:?} did not complete in {max} cycles");
    }

    fn settle(lsu: &mut Lsu, bus: &mut Bus, itcm: &mut Tcm, dtcm: &mut Tcm) {
        for _ in 0..200 {
            lsu.cycle(bus, itcm, dtcm);
            bus.step();
            if lsu.quiescent() {
                return;
            }
        }
        panic!("LSU did not quiesce");
    }

    #[test]
    fn dtcm_access_is_single_cycle() {
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(None);
        let a = DTCM_BASE + 16;
        let (c, _) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Store, addr: a, wdata: 55 }, 10);
        assert_eq!(c, 1);
        let (c, v) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Load, addr: a, wdata: 0 }, 10);
        assert_eq!((c, v), (1, 55));
    }

    #[test]
    fn store_posts_and_load_forwards_from_wbuf() {
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(None);
        let a = SRAM_BASE + 0x20;
        let (c, _) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Store, addr: a, wdata: 99 }, 10);
        assert_eq!(c, 1, "posted store completes immediately");
        let (c, v) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Load, addr: a, wdata: 0 }, 10);
        assert_eq!(v, 99, "store-to-load forwarding");
        assert_eq!(c, 1);
        settle(&mut lsu, &mut bus, &mut itcm, &mut dtcm);
        assert_eq!(bus.sram().peek(a), 99, "drained to memory");
    }

    #[test]
    fn uncached_load_pays_bus_latency() {
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(None);
        bus.sram_mut().poke(SRAM_BASE + 4, 7);
        let (c, v) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Load, addr: SRAM_BASE + 4, wdata: 0 }, 50);
        assert_eq!(v, 7);
        assert!(c >= 4, "SRAM access latency, got {c}");
    }

    #[test]
    fn cached_load_miss_fills_then_hits() {
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(Some(CacheConfig::dcache_4k()));
        bus.sram_mut().poke(SRAM_BASE + 0x40, 11);
        bus.sram_mut().poke(SRAM_BASE + 0x44, 22);
        let (c_miss, v) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Load, addr: SRAM_BASE + 0x40, wdata: 0 }, 100);
        assert_eq!(v, 11);
        assert!(c_miss > 4);
        let (c_hit, v) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Load, addr: SRAM_BASE + 0x44, wdata: 0 }, 10);
        assert_eq!((c_hit, v), (1, 22), "same line now hits");
    }

    #[test]
    fn write_allocate_miss_fills_line() {
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(Some(CacheConfig::dcache_4k()));
        let a = SRAM_BASE + 0x80;
        let (c, _) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Store, addr: a, wdata: 5 }, 100);
        assert!(c > 1, "write-allocate miss pays the fill");
        let (c, v) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Load, addr: a, wdata: 0 }, 10);
        assert_eq!((c, v), (1, 5), "allocated");
        settle(&mut lsu, &mut bus, &mut itcm, &mut dtcm);
        assert_eq!(bus.sram().peek(a), 5, "write-through reached memory");
    }

    #[test]
    fn no_write_allocate_miss_skips_the_cache() {
        let cfg = CacheConfig { policy: WritePolicy::NoWriteAllocate, ..CacheConfig::dcache_4k() };
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(Some(cfg));
        let a = SRAM_BASE + 0x80;
        let (c, _) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Store, addr: a, wdata: 5 }, 10);
        assert_eq!(c, 1, "miss posts straight to the buffer");
        settle(&mut lsu, &mut bus, &mut itcm, &mut dtcm);
        assert_eq!(lsu.dcache().unwrap().probe(a), None, "not allocated");
        // The paper's dummy-load transform then brings the line in:
        let (_, v) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Load, addr: a, wdata: 0 }, 100);
        assert_eq!(v, 5);
        assert!(lsu.dcache().unwrap().probe(a).is_some(), "now allocated");
    }

    #[test]
    fn swap_is_ordered_after_drain() {
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(None);
        let lock = SRAM_BASE;
        run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Store, addr: lock, wdata: 3 }, 10);
        let (_, old) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Swap, addr: lock, wdata: 1 }, 100);
        assert_eq!(old, 3, "swap saw the drained store");
        assert_eq!(bus.sram().peek(lock), 1);
    }

    #[test]
    fn wbuf_full_stalls_store() {
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(None);
        // Depth is 4; issue 5 stores back to back and count cycles.
        let mut cycles = vec![];
        for i in 0..5 {
            let (c, _) = run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
                MemOp { kind: MemOpKind::Store, addr: SRAM_BASE + 4 * i, wdata: i }, 100);
            cycles.push(c);
        }
        assert_eq!(cycles[0], 1);
        assert!(*cycles.last().unwrap() > 1, "buffer backpressure: {cycles:?}");
    }

    #[test]
    fn quiescent_lifecycle() {
        let (mut lsu, mut bus, mut itcm, mut dtcm) = rig(None);
        assert!(lsu.quiescent());
        run_op(&mut lsu, &mut bus, &mut itcm, &mut dtcm,
            MemOp { kind: MemOpKind::Store, addr: SRAM_BASE, wdata: 1 }, 10);
        assert!(!lsu.quiescent(), "write still buffered");
        settle(&mut lsu, &mut bus, &mut itcm, &mut dtcm);
    }
}
