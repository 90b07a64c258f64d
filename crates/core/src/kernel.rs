//! The partition-centric PageRank iteration, written once for HiPa, p-PR
//! and GPOP on both substrates (PCPM, Lakhotia et al., arXiv 1709.07122).
//!
//! One iteration of a [`Unit`] (a partition, or one thread's share of it)
//! is three steps:
//!
//! * [`Kernel::scatter`] — the intra pass (same-partition edges added
//!   straight into the accumulators, in source order), then one sequential
//!   bin write per destination partition (the PNG view);
//! * [`Kernel::apply_inbox`] — the unit's inbox applied in slot order;
//! * [`Kernel::finalise`] — the new rank, the pre-scaled contribution
//!   `contrib = new * inv_deg`, a cleared accumulator, and the residual and
//!   dangling-mass terms, added to the caller's running sums (so each
//!   engine keeps its own f64 reduction order).
//!
//! Every access the machine model prices is announced to a [`Charge`]. The
//! two substrates differ only there: [`Native`] compiles each charge to
//! nothing and turns `prefetch` into the hardware hint; [`Sim`] forwards
//! each charge to the simulated thread's `ThreadCtx`, using the engine's
//! [`SimRegions`] (region ids, element widths, per-edge framework ops). The
//! host arithmetic is the same code on both, so native and simulated ranks
//! are bit-equal by construction. The vertex-centric engines charge their
//! own pull loops through the same pair, keyed by their own arrays (any
//! [`Regions`] table).
//!
//! disjointness: the caller's unit plan — `hipa_plan_shared` for HiPa
//! native (per thread, whole partitions and, at either end of its
//! destination range, a `Share`: one destination sub-range plus its
//! `Unit::msgs` run of the partition's PNG messages), the FCFS
//! `ClaimCounter` for p-PR/GPOP native, and `phase_balanced`'s one-host-
//! thread replay in the simulator. A unit writes only the accumulators,
//! ranks and contributions of its own destinations and the PNG slots of its
//! own message run; ranks and contributions are read across units only in
//! the scatter step, which a barrier or a scope join separates from every
//! finalise.

use crate::config::{DanglingPolicy, PageRankConfig};
use crate::convergence;
use crate::disjoint::SharedSlice;
use crate::pcpm::{PcpmLayout, SubRangeLists};
use crate::prefetch::{LineFilter, Prefetch, PREFETCH_DISTANCE};
use hipa_graph::DiGraph;
use hipa_numasim::{Placement, RegionId, SimMachine, ThreadCtx};
use hipa_partition::Share;
use std::ops::Range;

/// Dangling rank mass of `rank` under the configured policy.
pub fn dangling_mass(g: &DiGraph, cfg: &PageRankConfig, rank: &[f32]) -> f64 {
    match cfg.dangling {
        DanglingPolicy::Ignore => 0.0,
        DanglingPolicy::Redistribute => (0..g.num_vertices())
            .filter(|&v| g.out_degree(v as u32) == 0)
            .map(|v| rank[v] as f64)
            .sum(),
    }
}

/// The per-vertex constant term of Eq. 1 for this iteration.
pub fn base_value(cfg: &PageRankConfig, n: usize, dangling: f64) -> f32 {
    let d = cfg.damping;
    let inv_n = 1.0f32 / n as f32;
    (1.0 - d) * inv_n + d * (dangling as f32) * inv_n
}

/// The arrays the kernel touches, by name. The simulator allocates one
/// region per array, in this order ([`SimRegions::alloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arr {
    Rank,
    /// Pre-scaled contributions, `rank / outdeg`, computed once per vertex
    /// at finalise: each phase's random working set is one vertex array.
    Contrib,
    Acc,
    InvDeg,
    Deg,
    IntraOffsets,
    IntraDst,
    PngPairs,
    PngSrc,
    Vals,
    DestVerts,
}

/// Each array's simulated region name, in allocation order.
const REGIONS: [(Arr, &str); 11] = [
    (Arr::Rank, "rank"),
    (Arr::Contrib, "contrib"),
    (Arr::Acc, "acc"),
    (Arr::InvDeg, "inv_deg"),
    (Arr::Deg, "deg"),
    (Arr::IntraOffsets, "intra_offsets"),
    (Arr::IntraDst, "intra_dst"),
    (Arr::PngPairs, "png_pairs"),
    (Arr::PngSrc, "png_src"),
    (Arr::Vals, "vals"),
    (Arr::DestVerts, "dest_verts"),
];

/// What an engine's iteration tells its substrate about each access, in
/// elements of the named array (`K`: this kernel's [`Arr`], or a pull
/// engine's own key). Mirrors numasim's `ThreadCtx`. Every charge is free
/// unless the substrate prices it.
pub trait Charge<K: Copy = Arr> {
    #[inline(always)]
    fn read(&mut self, _a: K, _i: usize) {}
    #[inline(always)]
    fn write(&mut self, _a: K, _i: usize) {}
    #[inline(always)]
    fn stream_read(&mut self, _a: K, _i: usize, _n: usize) {}
    #[inline(always)]
    fn stream_write(&mut self, _a: K, _i: usize, _n: usize) {}
    /// An atomic read-modify-write of one element.
    #[inline(always)]
    fn atomic_rmw(&mut self, _a: K, _i: usize) {}
    /// `ops` arithmetic operations.
    #[inline(always)]
    fn compute(&mut self, _ops: u64) {}
    /// The work of `edges` binned edges or messages, framework tax included.
    #[inline(always)]
    fn compute_edges(&mut self, _edges: u64) {}
    /// A software-prefetch hint for element `i` of `a`, held in `s`.
    fn prefetch<P: Prefetch + ?Sized>(&mut self, a: K, s: &P, i: usize);
}

/// The host substrate: charges cost nothing, a prefetch is the hardware
/// hint.
pub struct Native;

impl<K: Copy> Charge<K> for Native {
    #[inline(always)]
    fn prefetch<P: Prefetch + ?Sized>(&mut self, _: K, s: &P, i: usize) {
        s.prefetch(i);
    }
}

/// An engine's simulated regions by array key: the region of each array and
/// its element width in bytes.
pub trait Regions {
    type Key: Copy;
    fn region(&self, a: Self::Key) -> (RegionId, usize);
    /// The modelled ops of `edges` binned edges or messages.
    fn edge_ops(&self, edges: u64) -> u64 {
        edges
    }
}

/// One engine's simulated regions for the kernel's arrays, with the widths
/// the real encoding streams: 12-byte PNG bin headers, a 4- or 8-byte
/// message payload, 4 bytes for everything else.
pub struct SimRegions {
    ids: [RegionId; 11],
    /// Each array's bytes at those widths.
    bytes: [usize; 11],
    payload_bytes: usize,
    extra_ops_per_edge: u64,
}

impl SimRegions {
    /// Allocates every [`Arr`] of `layout`'s run on `machine`, in
    /// declaration order; `place(a, bytes)` gives the bytes to allocate
    /// (at least `bytes`) and the placement.
    pub fn alloc(
        machine: &mut SimMachine,
        layout: &PcpmLayout,
        payload_bytes: usize,
        extra_ops_per_edge: u64,
        mut place: impl FnMut(Arr, usize) -> (usize, Placement),
    ) -> Self {
        let n = layout.num_vertices;
        let bytes = REGIONS.map(|(a, _)| {
            Self::elem_bytes(a, payload_bytes)
                * match a {
                    Arr::Rank | Arr::Contrib | Arr::Acc | Arr::InvDeg | Arr::Deg => n,
                    Arr::IntraOffsets => n + 1,
                    Arr::IntraDst => layout.intra_dst.len(),
                    Arr::PngPairs => layout.png_pairs.len(),
                    Arr::PngSrc | Arr::Vals => layout.total_msgs as usize,
                    Arr::DestVerts => layout.dest_verts.len(),
                }
        });
        let ids = REGIONS.map(|(a, name)| {
            let (alloc_bytes, placement) = place(a, bytes[a as usize]);
            machine.alloc(name, alloc_bytes, placement)
        });
        SimRegions { ids, bytes, payload_bytes, extra_ops_per_edge }
    }

    pub fn id(&self, a: Arr) -> RegionId {
        self.ids[a as usize]
    }

    fn elem_bytes(a: Arr, payload_bytes: usize) -> usize {
        match a {
            Arr::PngPairs => 12,
            Arr::Vals => payload_bytes,
            _ => 4,
        }
    }

    /// Charges the binding copy of every array but those in `skip`: one
    /// sequential write of its bytes, in declaration order.
    pub fn bind(&self, ctx: &mut ThreadCtx, skip: &[Arr]) {
        for (i, (a, _)) in REGIONS.into_iter().enumerate() {
            if self.bytes[i] > 0 && !skip.contains(&a) {
                ctx.stream_write(self.ids[i], 0, self.bytes[i]);
            }
        }
    }
}

impl Regions for SimRegions {
    type Key = Arr;
    fn region(&self, a: Arr) -> (RegionId, usize) {
        (self.id(a), Self::elem_bytes(a, self.payload_bytes))
    }
    fn edge_ops(&self, edges: u64) -> u64 {
        (1 + self.extra_ops_per_edge) * edges
    }
}

/// A region table indexed by array number: each entry's region and element
/// width, in allocation order.
impl Regions for Vec<(RegionId, usize)> {
    type Key = usize;
    fn region(&self, a: usize) -> (RegionId, usize) {
        self[a]
    }
}

/// The simulated substrate: every charge goes to the simulated thread.
pub struct Sim<'c, 'm, R = SimRegions> {
    pub ctx: &'c mut ThreadCtx<'m>,
    pub regions: &'c R,
}

/// A `ThreadCtx` access: region, byte offset, byte length.
type Access<'m> = fn(&mut ThreadCtx<'m>, RegionId, usize, usize);

impl<'m, R: Regions> Sim<'_, 'm, R> {
    #[inline]
    fn on(&mut self, access: Access<'m>, a: R::Key, i: usize, n: usize) {
        let (id, w) = self.regions.region(a);
        access(self.ctx, id, w * i, w * n);
    }
}

impl<R: Regions> Charge<R::Key> for Sim<'_, '_, R> {
    fn read(&mut self, a: R::Key, i: usize) {
        self.on(ThreadCtx::read, a, i, 1);
    }
    fn write(&mut self, a: R::Key, i: usize) {
        self.on(ThreadCtx::write, a, i, 1);
    }
    fn stream_read(&mut self, a: R::Key, i: usize, n: usize) {
        self.on(ThreadCtx::stream_read, a, i, n);
    }
    fn stream_write(&mut self, a: R::Key, i: usize, n: usize) {
        self.on(ThreadCtx::stream_write, a, i, n);
    }
    fn atomic_rmw(&mut self, a: R::Key, i: usize) {
        self.on(ThreadCtx::atomic_rmw, a, i, 1);
    }
    fn compute(&mut self, ops: u64) {
        self.ctx.compute(ops);
    }
    fn compute_edges(&mut self, edges: u64) {
        self.ctx.compute(self.regions.edge_ops(edges));
    }
    fn prefetch<P: Prefetch + ?Sized>(&mut self, a: R::Key, _: &P, i: usize) {
        self.on(ThreadCtx::prefetch, a, i, 1);
    }
}

/// Entry `i`'s list is `items[offsets[i]..offsets[i + 1]]`. Its key (a
/// source vertex or an inbox slot) is `first + keys[i]`, or `first + i` when
/// there are no keys: a whole partition, read straight from the layout.
#[derive(Clone, Copy)]
struct Lists<'a> {
    first: usize,
    keys: Option<&'a [u32]>,
    offsets: &'a [u64],
    items: &'a [u32],
}

impl<'a> Lists<'a> {
    /// Calls `f(i, key, list)` for every entry, in order.
    #[inline]
    fn for_each(self, mut f: impl FnMut(usize, usize, &'a [u32])) {
        let lists = self.offsets.windows(2).map(|w| &self.items[w[0] as usize..w[1] as usize]);
        match self.keys {
            None => lists.enumerate().for_each(|(i, l)| f(i, self.first + i, l)),
            Some(keys) => keys
                .iter()
                .zip(lists)
                .enumerate()
                .for_each(|(i, (&k, l))| f(i, self.first + k as usize, l)),
        }
    }

    /// Entry `i`'s list, if there is one.
    #[inline]
    fn list(self, i: usize) -> Option<&'a [u32]> {
        self.offsets.get(i..i + 2).map(|w| &self.items[w[0] as usize..w[1] as usize])
    }

    fn len(self) -> usize {
        self.offsets.len() - 1
    }

    /// The run of `items` the entries cover.
    fn span(self) -> Range<usize> {
        self.offsets[0] as usize..self.offsets[self.len()] as usize
    }
}

/// One thread's share of one partition: the whole partition, read straight
/// from the layout, or one [`Share`] of it, read from the lists copied for
/// its destination sub-range (only the sources and slots that reach it).
/// The simulator plans whole partitions only, so its charges are those of
/// whole units.
pub struct Unit<'a> {
    part: usize,
    /// Destinations this unit sums into and finalises.
    dsts: Range<usize>,
    intra: Lists<'a>,
    inbox: Lists<'a>,
    /// This unit's run of the partition's PNG messages (`png_src` indices).
    msgs: Range<usize>,
}

impl<'a> Unit<'a> {
    /// Partition `p`, whole.
    pub fn whole(layout: &'a PcpmLayout, p: usize) -> Self {
        let vr = layout.partition_vertices(p);
        let sr = &layout.part_slot_ranges[p];
        let (vs, ss) = (vr.start as usize, sr.start as usize);
        Unit {
            part: p,
            dsts: vs..vr.end as usize,
            intra: Lists {
                first: vs,
                keys: None,
                offsets: &layout.intra_offsets[vs..=vr.end as usize],
                items: &layout.intra_dst,
            },
            inbox: Lists {
                first: ss,
                keys: None,
                offsets: &layout.dest_offsets[ss..=sr.end as usize],
                items: &layout.dest_verts,
            },
            msgs: layout.png_msgs(p),
        }
    }

    /// Share `share` of partition `p`: it sums into `dsts`, whose lists are
    /// `sub`, and writes its run of the partition's PNG messages.
    pub fn shared(
        layout: &'a PcpmLayout,
        p: usize,
        share: Share,
        dsts: Range<u32>,
        sub: &'a SubRangeLists,
    ) -> Self {
        let whole = Unit::whole(layout, p);
        let keyed = |first, l: &'a crate::pcpm::KeyedLists| Lists {
            first,
            keys: Some(&l.keys),
            offsets: &l.offsets,
            items: &l.items,
        };
        let Share { index, of } = share;
        let m = whole.msgs;
        Unit {
            part: p,
            dsts: dsts.start as usize..dsts.end as usize,
            intra: keyed(whole.intra.first, &sub.intra),
            inbox: keyed(whole.inbox.first, &sub.inbox),
            msgs: m.start + m.len() * index / of..m.start + m.len() * (index + 1) / of,
        }
    }
}

/// The host state of one run: ranks, pre-scaled contributions,
/// accumulators and the PNG message values.
pub struct State {
    pub rank: Vec<f32>,
    /// `rank * inv_deg`, kept so by [`Kernel::finalise`].
    contrib: Vec<f32>,
    acc: Vec<f32>,
    vals: Vec<f32>,
}

impl State {
    /// Uniform ranks over `inv_deg.len()` vertices, `msgs` message slots.
    pub fn new(inv_deg: &[f32], msgs: usize) -> Self {
        let inv_n = 1.0f32 / inv_deg.len() as f32;
        State {
            rank: vec![inv_n; inv_deg.len()],
            contrib: inv_deg.iter().map(|&i| inv_n * i).collect(),
            acc: vec![0.0; inv_deg.len()],
            vals: vec![0.0; msgs],
        }
    }
}

/// One iteration's finalise parameters.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Eq. 1's constant term.
    base: f32,
    /// Write the new ranks on the host.
    materialise: bool,
    /// Sum the L1 residual terms (needs `materialise`).
    track: bool,
    /// The rank traffic the model charges: a write where the program needs
    /// the ranks, with a read of the old ones first when it also needs the
    /// residual.
    charge_rank: bool,
    charge_rank_read: bool,
}

impl Step {
    /// A host iteration: the ranks are always written, with residual terms
    /// when `track`.
    pub fn native(base: f32, track: bool) -> Self {
        Step { base, materialise: true, track, charge_rank: false, charge_rank_read: false }
    }

    /// A simulated iteration. The modelled program writes the ranks in the
    /// `last` iteration, or in every one when it checks a tolerance
    /// (`track_model`, reading the old ranks first). The host also writes
    /// them, untimed, whenever it sums residuals for the trace
    /// (`track_host`), so cycles do not depend on tracing.
    pub fn sim(base: f32, last: bool, track_model: bool, track_host: bool) -> Self {
        Step {
            base,
            materialise: last || track_host,
            track: track_host,
            charge_rank: last || track_model,
            charge_rank_read: track_model,
        }
    }
}

/// The per-partition kernel over one run's [`State`].
pub struct Kernel<'a> {
    layout: &'a PcpmLayout,
    inv_deg: &'a [f32],
    degs: &'a [u32],
    damping: f32,
    redistribute: bool,
    prefetch: bool,
    rank: SharedSlice<'a, f32>,
    contrib: SharedSlice<'a, f32>,
    acc: SharedSlice<'a, f32>,
    vals: SharedSlice<'a, f32>,
}

impl<'a> Kernel<'a> {
    /// `prefetch` arms the hints (each engine's adaptive gate decides).
    ///
    /// # Safety
    /// For the kernel's whole life, units stepped at the same time (on
    /// different threads) must own disjoint destinations and message runs,
    /// and every [`Self::scatter`] must be ordered (by a barrier or a join)
    /// against every [`Self::apply_inbox`] and [`Self::finalise`].
    pub unsafe fn new(
        layout: &'a PcpmLayout,
        g: &'a DiGraph,
        cfg: &PageRankConfig,
        inv_deg: &'a [f32],
        state: &'a mut State,
        prefetch: bool,
    ) -> Self {
        Kernel {
            layout,
            inv_deg,
            degs: g.out_degrees(),
            damping: cfg.damping,
            redistribute: matches!(cfg.dangling, DanglingPolicy::Redistribute),
            prefetch,
            rank: SharedSlice::new(&mut state.rank),
            contrib: SharedSlice::new(&mut state.contrib),
            acc: SharedSlice::new(&mut state.acc),
            vals: SharedSlice::new(&mut state.vals),
        }
    }

    /// The intra pass, then the unit's PNG bin writes.
    pub fn scatter(&self, u: &Unit, c: &mut impl Charge) {
        let (contrib, acc) = (&self.contrib, &self.acc);
        let span = u.intra.span();
        if !span.is_empty() {
            c.stream_read(Arr::IntraOffsets, u.intra.first, u.intra.len() + 1);
            c.stream_read(Arr::IntraDst, span.start, span.len());
            u.intra.for_each(|_, v, intra| {
                if intra.is_empty() {
                    return;
                }
                c.read(Arr::Contrib, v);
                // SAFETY: contributions are written only by finalise, which
                // a barrier or join separates from every scatter.
                let val = unsafe { contrib.get(v) };
                for &dst in intra {
                    // SAFETY: intra destinations lie in the unit's own
                    // destination range.
                    unsafe { acc.update(dst as usize, |a| *a += val) };
                    c.write(Arr::Acc, dst as usize);
                }
                c.compute(1 + intra.len() as u64);
            });
        }
        let pairs = self.layout.png_of(u.part);
        if !pairs.is_empty() {
            c.stream_read(Arr::PngPairs, self.layout.png_index[u.part].start as usize, pairs.len());
        }
        for pair in pairs {
            let first = pair.src_start as usize;
            let lo = first.max(u.msgs.start);
            let hi = (first + pair.len as usize).min(u.msgs.end);
            if lo >= hi {
                continue;
            }
            let srcs = &self.layout.png_src[lo..hi];
            let slot0 = pair.slot_start as usize + (lo - first);
            c.stream_read(Arr::PngSrc, lo, srcs.len());
            c.stream_write(Arr::Vals, slot0, srcs.len());
            if self.prefetch {
                // Warm this bin's write cursor: the slot run starts on a
                // cold line per pair.
                c.prefetch(Arr::Vals, &self.vals, slot0);
            }
            let mut pf = LineFilter::new();
            for (k, &src) in srcs.iter().enumerate() {
                if self.prefetch {
                    if let Some(&ahead) = srcs.get(k + PREFETCH_DISTANCE) {
                        if pf.admit(ahead as usize) {
                            c.prefetch(Arr::Contrib, contrib, ahead as usize);
                        }
                    }
                }
                c.read(Arr::Contrib, src as usize);
                // SAFETY: as for the intra pass; each PNG slot has exactly
                // one writer, the owner of its `msgs` run.
                unsafe { self.vals.write(slot0 + k, contrib.get(src as usize)) };
            }
            c.compute_edges(srcs.len() as u64);
        }
    }

    /// The unit's inbox, applied in slot order.
    pub fn apply_inbox(&self, u: &Unit, c: &mut impl Charge) {
        let (inbox, acc) = (u.inbox, &self.acc);
        if inbox.len() > 0 {
            c.stream_read(Arr::Vals, inbox.first, inbox.len());
            // Message boundaries ride as MSB flags inside the destination
            // list: 4 bytes per edge, no separate offsets stream.
            let span = inbox.span();
            if !span.is_empty() {
                c.stream_read(Arr::DestVerts, span.start, span.len());
            }
        }
        let mut pf = LineFilter::new();
        inbox.for_each(|i, slot, dests| {
            if self.prefetch {
                // Run ahead on the accumulator lines the slot
                // PREFETCH_DISTANCE messages onward will hit.
                for &dst in inbox.list(i + PREFETCH_DISTANCE).unwrap_or(&[]) {
                    if pf.admit(dst as usize) {
                        c.prefetch(Arr::Acc, acc, dst as usize);
                    }
                }
            }
            if dests.is_empty() {
                return;
            }
            // SAFETY: the inbox is read only after the scatter barrier.
            let val = unsafe { self.vals.get(slot) };
            for &dst in dests {
                // SAFETY: dest vertices lie in the unit's own range.
                unsafe { acc.update(dst as usize, |a| *a += val) };
                c.write(Arr::Acc, dst as usize);
            }
            c.compute_edges(dests.len() as u64);
        });
    }

    /// The unit's new ranks, with their residual terms added to `delta`
    /// and their dangling mass to `dpart`.
    pub fn finalise(
        &self,
        u: &Unit,
        step: &Step,
        delta: &mut f64,
        dpart: &mut f64,
        c: &mut impl Charge,
    ) {
        let Range { start: lo, end: hi } = u.dsts;
        if lo == hi {
            return;
        }
        let len = hi - lo;
        c.stream_read(Arr::Acc, lo, len);
        c.stream_read(Arr::InvDeg, lo, len);
        c.stream_write(Arr::Contrib, lo, len);
        c.stream_write(Arr::Acc, lo, len);
        if step.charge_rank {
            if step.charge_rank_read {
                c.stream_read(Arr::Rank, lo, len);
            }
            c.stream_write(Arr::Rank, lo, len);
        }
        if self.redistribute {
            c.stream_read(Arr::Deg, lo, len);
        }
        for v in lo..hi {
            // SAFETY: v is in the unit's own destination range; ranks and
            // contributions are read by other units only in the scatter
            // step, before the barrier.
            unsafe {
                let new = step.base + self.damping * self.acc.get(v);
                self.contrib.write(v, new * self.inv_deg[v]);
                self.acc.write(v, 0.0);
                if step.materialise {
                    if step.track {
                        *delta += convergence::l1_term(new, self.rank.get(v));
                    }
                    self.rank.write(v, new);
                }
                if self.redistribute && self.degs[v] == 0 {
                    *dpart += new as f64;
                }
            }
        }
        c.compute(3 * len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_graph::gen::path;

    #[test]
    fn dangling_mass_by_policy() {
        let g = DiGraph::from_edge_list(&path(3));
        let rank = vec![0.25f32, 0.25, 0.5];
        let ignore = PageRankConfig::default();
        assert_eq!(dangling_mass(&g, &ignore, &rank), 0.0);
        let redis = ignore.with_dangling(DanglingPolicy::Redistribute);
        assert!((dangling_mass(&g, &redis, &rank) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn base_value_formula() {
        let cfg = PageRankConfig::new(0.85, 1);
        let b = base_value(&cfg, 10, 0.0);
        assert!((b - 0.015).abs() < 1e-7);
    }
}
