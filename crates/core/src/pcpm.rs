//! Partition-centric scatter/gather data layout with inter-edge compression.
//!
//! This is the PCPM layout of Lakhotia et al. (ATC'18) — reference [21] of
//! the paper — which HiPa adopts (§3.4, Fig. 4) and which the `p-PR` and
//! `GPOP` baselines also use:
//!
//! * Out-edges whose destination lies in the *same* cache partition as the
//!   source ("intra-edges") are kept as plain adjacency and applied directly
//!   inside the private cache during scatter.
//! * Out-edges crossing partitions ("inter-edges") are *compressed*: all
//!   inter-edges from one source vertex into one destination partition
//!   collapse into a single **message slot**. At scatter the source writes
//!   its contribution into the slot; at gather the destination partition
//!   streams its slots and propagates each value to the recorded destination
//!   vertices via the local `dest_verts` list.
//!
//! Slots are laid out grouped by destination partition and, within a
//! destination, ordered by (source partition, source vertex) — so scatter
//! writes each destination bin sequentially and gather reads its whole inbox
//! as one stream. Sizes are static because PageRank sends every message in
//! every iteration.
//!
//! disjointness: build-chunk plan — each parallel build pass claims fixed
//! `CHUNK_VERTS` vertex chunks (or whole partitions) via `run_indexed`, and
//! every write lands in the claimed chunk's own index range of the output
//! arrays; each `SharedSlice` lives for a single pass.

use crate::par::run_indexed;
use hipa_graph::Csr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Vertices per parallel build chunk. Fixed (not thread-derived) so the
/// chunk decomposition is deterministic; the built layout is identical for
/// any chunking regardless (see [`PcpmLayout::build_par_ext`]).
const CHUNK_VERTS: usize = 4096;

/// Process-wide tally of layout constructions. Bumped once per build —
/// at the head of the sequential builder and of the parallel builder's
/// non-delegating path, so a parallel build that falls back to the
/// sequential one still counts exactly once — and once per
/// [`crate::PcpmPrepared::build`] (its pull layout, see [`count_layout_build`]).
static LAYOUT_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total layout builds since process start (monotonic): every
/// [`PcpmLayout`] the engines build plus every resident pull layout a
/// [`crate::PcpmPrepared::build`] makes. The serve census reads deltas of
/// this to prove that a batch of requests reused one resident layout
/// instead of rebuilding per call.
pub fn layout_builds_total() -> u64 {
    // ordering: relaxed (monotonic statistics counter; callers read deltas
    // after the builds they issued have returned — no payload is published
    // through it).
    LAYOUT_BUILDS.load(Ordering::Relaxed)
}

/// Counts one layout build toward [`layout_builds_total`].
pub(crate) fn count_layout_build() {
    // ordering: relaxed (statistics tally; see `layout_builds_total`).
    LAYOUT_BUILDS.fetch_add(1, Ordering::Relaxed);
}

/// The built layout. All index arrays are `u64`-offset CSR-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcpmLayout {
    pub verts_per_partition: usize,
    pub num_partitions: usize,
    pub num_vertices: usize,
    /// Intra-edge adjacency: destinations of vertex `v` are
    /// `intra_dst[intra_offsets[v]..intra_offsets[v+1]]`. Empty when
    /// `include_intra_in_bins` (the GPOP-style mode that bins everything).
    pub intra_offsets: Vec<u64>,
    pub intra_dst: Vec<u32>,
    /// Compressed messages of vertex `v`:
    /// `msg_slot[msg_offsets[v]..msg_offsets[v+1]]` (parallel to
    /// `msg_dst_part`).
    pub msg_offsets: Vec<u64>,
    pub msg_dst_part: Vec<u32>,
    pub msg_slot: Vec<u64>,
    /// Slot ranges per destination partition (contiguous, ascending).
    pub part_slot_ranges: Vec<Range<u64>>,
    /// Destination vertices of slot `k`:
    /// `dest_verts[dest_offsets[k]..dest_offsets[k+1]]`.
    ///
    /// At run time the real PCPM encodes message boundaries *inside* the
    /// destination list with an MSB flag on each message's first entry, so
    /// only 4 bytes per edge are streamed; `dest_offsets` is the build-time
    /// equivalent and is not charged as runtime traffic.
    pub dest_offsets: Vec<u64>,
    pub dest_verts: Vec<u32>,
    pub total_msgs: u64,
    /// GPOP-style mode: intra-edges are binned like everything else.
    pub include_intra_in_bins: bool,
    /// PNG ("partition-node-graph") scatter view: for source partition `p`,
    /// `png_pairs[png_index[p].clone()]` lists the destination bins, each
    /// with its contiguous slot range; `png_src` holds the source vertex of
    /// every message in `(p, q, v)` order.
    pub png_index: Vec<Range<u32>>,
    pub png_pairs: Vec<PngPair>,
    pub png_src: Vec<u32>,
}

/// One (source partition → destination partition) bin in the PNG scatter
/// view: `len` messages whose slots are `slot_start..slot_start+len`, with
/// source vertices in `png_src[src_start..src_start+len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PngPair {
    pub dst_part: u32,
    pub slot_start: u64,
    pub src_start: u64,
    pub len: u32,
}

/// One destination sub-range's share of a partition's lists
/// ([`PcpmLayout::sub_range_lists`]): its intra lists, keyed by source, and
/// its inbox lists, keyed by slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubRangeLists {
    pub intra: KeyedLists,
    pub inbox: KeyedLists,
}

/// The lists that reach a sub-range: the `i`-th belongs to `keys[i]`
/// (relative to the partition's first source or slot) and is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedLists {
    pub keys: Vec<u32>,
    pub offsets: Vec<u64>,
    pub items: Vec<u32>,
}

impl PcpmLayout {
    /// Builds the layout from an out-CSR.
    ///
    /// `verts_per_partition` is |P| (= partition bytes / 4 per §3.1);
    /// `include_intra_in_bins` selects the GPOP-style all-binned mode.
    pub fn build(csr: &Csr, verts_per_partition: usize, include_intra_in_bins: bool) -> Self {
        Self::build_ext(csr, verts_per_partition, include_intra_in_bins, true)
    }

    /// [`Self::build`] with inter-edge compression switchable — the
    /// `ablation_compression` experiment disables it, giving every
    /// inter-edge its own single-destination message (Fig. 4 "before").
    ///
    /// Uses all available host parallelism; the result is bit-identical to
    /// [`Self::build_seq_ext`] for any thread count.
    pub fn build_ext(
        csr: &Csr,
        verts_per_partition: usize,
        include_intra_in_bins: bool,
        compress_inter: bool,
    ) -> Self {
        Self::build_par_ext(
            csr,
            verts_per_partition,
            include_intra_in_bins,
            compress_inter,
            rayon::current_num_threads(),
        )
    }

    /// The reference single-threaded builder. [`Self::build_par_ext`] must
    /// produce exactly this layout; the bit-equality tests compare against
    /// it.
    pub fn build_seq_ext(
        csr: &Csr,
        verts_per_partition: usize,
        include_intra_in_bins: bool,
        compress_inter: bool,
    ) -> Self {
        assert!(verts_per_partition >= 1);
        count_layout_build();
        let n = csr.num_vertices();
        let num_partitions = n.div_ceil(verts_per_partition).max(1);
        let part_of = |v: u32| v as usize / verts_per_partition;

        // Pass 1: count intra edges per vertex, messages per vertex, and
        // messages per destination partition. Neighbour lists are sorted, so
        // each destination partition appears as one contiguous run.
        let mut intra_offsets = vec![0u64; n + 1];
        let mut msg_offsets = vec![0u64; n + 1];
        let mut msgs_per_part = vec![0u64; num_partitions];
        for v in 0..n as u32 {
            let pv = part_of(v);
            let mut last = usize::MAX;
            let mut intra = 0u64;
            let mut msgs = 0u64;
            debug_assert!(
                csr.neighbors(v).windows(2).all(|w| w[0] <= w[1]),
                "adjacency must be sorted"
            );
            for &t in csr.neighbors(v) {
                let pt = part_of(t);
                if pt == pv && !include_intra_in_bins {
                    intra += 1;
                    continue;
                }
                // Sorted neighbours make destination partitions monotone, so
                // each partition is one contiguous run.
                if pt != last || !compress_inter {
                    msgs += 1;
                    msgs_per_part[pt] += 1;
                    last = pt;
                }
            }
            intra_offsets[v as usize + 1] = intra_offsets[v as usize] + intra;
            msg_offsets[v as usize + 1] = msg_offsets[v as usize] + msgs;
        }
        let total_intra = intra_offsets[n];
        let total_msgs = msg_offsets[n];

        let mut part_slot_ranges = Vec::with_capacity(num_partitions);
        let mut acc = 0u64;
        for q in 0..num_partitions {
            part_slot_ranges.push(acc..acc + msgs_per_part[q]);
            acc += msgs_per_part[q];
        }
        debug_assert_eq!(acc, total_msgs);

        // Pass 2: assign slots (per-destination cursors advance in source
        // order) and record per-slot destination counts.
        let mut intra_dst = vec![0u32; total_intra as usize];
        let mut msg_dst_part = vec![0u32; total_msgs as usize];
        let mut msg_slot = vec![0u64; total_msgs as usize];
        let mut slot_dest_count = vec![0u64; total_msgs as usize];
        let mut cursors: Vec<u64> = part_slot_ranges.iter().map(|r| r.start).collect();
        let mut intra_cur = 0usize;
        let mut msg_cur = 0usize;
        for v in 0..n as u32 {
            let pv = part_of(v);
            let mut run_part = usize::MAX;
            let mut run_slot = 0u64;
            for &t in csr.neighbors(v) {
                let pt = part_of(t);
                if pt == pv && !include_intra_in_bins {
                    intra_dst[intra_cur] = t;
                    intra_cur += 1;
                    continue;
                }
                if pt != run_part || !compress_inter {
                    run_part = pt;
                    run_slot = cursors[pt];
                    cursors[pt] += 1;
                    msg_dst_part[msg_cur] = pt as u32;
                    msg_slot[msg_cur] = run_slot;
                    msg_cur += 1;
                }
                slot_dest_count[run_slot as usize] += 1;
            }
        }
        debug_assert_eq!(intra_cur as u64, total_intra);
        debug_assert_eq!(msg_cur as u64, total_msgs);

        // Destination lists in slot order.
        let mut dest_offsets = vec![0u64; total_msgs as usize + 1];
        for k in 0..total_msgs as usize {
            dest_offsets[k + 1] = dest_offsets[k] + slot_dest_count[k];
        }
        let total_dests = dest_offsets[total_msgs as usize];
        let mut dest_verts = vec![0u32; total_dests as usize];
        // Pass 3: fill destination lists; reuse per-slot fill cursors.
        let mut fill: Vec<u64> = dest_offsets[..total_msgs as usize].to_vec();
        let mut msg_cur = 0usize;
        for v in 0..n as u32 {
            let pv = part_of(v);
            let mut run_part = usize::MAX;
            let mut run_slot = 0u64;
            for &t in csr.neighbors(v) {
                let pt = part_of(t);
                if pt == pv && !include_intra_in_bins {
                    continue;
                }
                if pt != run_part || !compress_inter {
                    run_part = pt;
                    run_slot = msg_slot[msg_cur];
                    msg_cur += 1;
                }
                let f = &mut fill[run_slot as usize];
                dest_verts[*f as usize] = t;
                *f += 1;
            }
        }

        // Pass 4: the PNG scatter view. Within one source partition, the
        // slots destined to a given partition are contiguous and ascending
        // (the per-destination cursor advances in source order), so grouping
        // p's messages by destination yields one (slot range, source list)
        // bin per destination partition.
        let mut png_index = Vec::with_capacity(num_partitions);
        let mut png_pairs: Vec<PngPair> = Vec::new();
        let mut png_src = vec![0u32; total_msgs as usize];
        let mut src_cur = 0u64;
        let mut triples: Vec<(u32, u64, u32)> = Vec::new(); // (q, slot, v)
        for p in 0..num_partitions {
            let v_lo = (p * verts_per_partition).min(n);
            let v_hi = ((p + 1) * verts_per_partition).min(n);
            triples.clear();
            for v in v_lo as u32..v_hi as u32 {
                let lo = msg_offsets[v as usize] as usize;
                let hi = msg_offsets[v as usize + 1] as usize;
                for k in lo..hi {
                    triples.push((msg_dst_part[k], msg_slot[k], v));
                }
            }
            triples.sort_unstable();
            let pairs_start = png_pairs.len() as u32;
            let mut i = 0usize;
            while i < triples.len() {
                let q = triples[i].0;
                let slot_start = triples[i].1;
                let src_start = src_cur;
                let mut len = 0u32;
                while i < triples.len() && triples[i].0 == q {
                    debug_assert_eq!(triples[i].1, slot_start + len as u64, "slots not contiguous");
                    png_src[src_cur as usize] = triples[i].2;
                    src_cur += 1;
                    len += 1;
                    i += 1;
                }
                png_pairs.push(PngPair { dst_part: q, slot_start, src_start, len });
            }
            png_index.push(pairs_start..png_pairs.len() as u32);
        }
        debug_assert_eq!(src_cur, total_msgs);

        PcpmLayout {
            verts_per_partition,
            num_partitions,
            num_vertices: n,
            intra_offsets,
            intra_dst,
            msg_offsets,
            msg_dst_part,
            msg_slot,
            part_slot_ranges,
            dest_offsets,
            dest_verts,
            total_msgs,
            include_intra_in_bins,
            png_index,
            png_pairs,
            png_src,
        }
    }

    /// Multi-threaded layout construction, bit-identical to
    /// [`Self::build_seq_ext`] for every `build_threads` value.
    ///
    /// The sequential builder's only cross-vertex state is the per-destination
    /// slot cursor, which advances in source-vertex order. Splitting the
    /// vertex range into fixed chunks and exclusive-scanning the per-chunk ×
    /// per-partition message counts reproduces the exact cursor value at
    /// every chunk boundary, so each chunk can assign its slots — and fill
    /// every downstream array — independently, writing structurally disjoint
    /// ranges through [`SharedSlice`](crate::disjoint::SharedSlice). The
    /// output therefore does not depend on the chunking or on thread
    /// scheduling.
    pub fn build_par_ext(
        csr: &Csr,
        verts_per_partition: usize,
        include_intra_in_bins: bool,
        compress_inter: bool,
        build_threads: usize,
    ) -> Self {
        Self::build_par_chunked(
            csr,
            verts_per_partition,
            include_intra_in_bins,
            compress_inter,
            build_threads,
            CHUNK_VERTS,
        )
    }

    /// [`Self::build_par_ext`] with an explicit chunk size. Exposed so the
    /// bit-equality tests can force multi-chunk execution on small graphs;
    /// production callers use the tuned [`CHUNK_VERTS`] default.
    #[doc(hidden)]
    pub fn build_par_chunked(
        csr: &Csr,
        verts_per_partition: usize,
        include_intra_in_bins: bool,
        compress_inter: bool,
        build_threads: usize,
        chunk_verts: usize,
    ) -> Self {
        use crate::disjoint::SharedSlice;

        let threads = build_threads.max(1);
        let chunk_verts = chunk_verts.max(1);
        let n = csr.num_vertices();
        if threads == 1 || n == 0 {
            return Self::build_seq_ext(
                csr,
                verts_per_partition,
                include_intra_in_bins,
                compress_inter,
            );
        }
        assert!(verts_per_partition >= 1);
        count_layout_build();
        let num_partitions = n.div_ceil(verts_per_partition).max(1);
        let part_of = |v: u32| v as usize / verts_per_partition;

        let num_chunks = n.div_ceil(chunk_verts);
        let chunk_range = |c: usize| (c * chunk_verts)..((c + 1) * chunk_verts).min(n);

        // Pass 1 (parallel): per-vertex intra/message counts into the
        // offset arrays' `v + 1` slots, and a chunks × partitions message
        // count matrix.
        let mut intra_offsets = vec![0u64; n + 1];
        let mut msg_offsets = vec![0u64; n + 1];
        let mut chunk_part_msgs = vec![0u64; num_chunks * num_partitions];
        {
            let intra_s = SharedSlice::new(&mut intra_offsets);
            let msg_s = SharedSlice::new(&mut msg_offsets);
            let counts_s = SharedSlice::new(&mut chunk_part_msgs);
            run_indexed(num_chunks, threads, |c| {
                let row = c * num_partitions;
                for v in chunk_range(c) {
                    let v = v as u32;
                    let pv = part_of(v);
                    let mut last = usize::MAX;
                    let mut intra = 0u64;
                    let mut msgs = 0u64;
                    debug_assert!(
                        csr.neighbors(v).windows(2).all(|w| w[0] <= w[1]),
                        "adjacency must be sorted"
                    );
                    for &t in csr.neighbors(v) {
                        let pt = part_of(t);
                        if pt == pv && !include_intra_in_bins {
                            intra += 1;
                            continue;
                        }
                        if pt != last || !compress_inter {
                            msgs += 1;
                            // SAFETY: row `c` of the count matrix is this
                            // chunk's alone.
                            unsafe { counts_s.update(row + pt, |x| *x += 1) };
                            last = pt;
                        }
                    }
                    // SAFETY: `v + 1` slots of distinct chunks are disjoint.
                    unsafe {
                        intra_s.write(v as usize + 1, intra);
                        msg_s.write(v as usize + 1, msgs);
                    }
                }
            });
        }
        // Sequential scans: per-vertex counts → offsets; count-matrix columns
        // → per-destination slot ranges plus each chunk's starting cursor
        // (the sequential cursor state at that chunk's first vertex).
        for v in 0..n {
            intra_offsets[v + 1] += intra_offsets[v];
            msg_offsets[v + 1] += msg_offsets[v];
        }
        let total_intra = intra_offsets[n];
        let total_msgs = msg_offsets[n];
        let mut msgs_per_part = vec![0u64; num_partitions];
        for c in 0..num_chunks {
            for q in 0..num_partitions {
                msgs_per_part[q] += chunk_part_msgs[c * num_partitions + q];
            }
        }
        let mut part_slot_ranges = Vec::with_capacity(num_partitions);
        let mut acc = 0u64;
        for q in 0..num_partitions {
            part_slot_ranges.push(acc..acc + msgs_per_part[q]);
            acc += msgs_per_part[q];
        }
        debug_assert_eq!(acc, total_msgs);
        // Exclusive scan down each column, in place: entry (c, q) becomes the
        // cursor for destination q at chunk c's start.
        let mut col_cursor = msgs_per_part; // reuse; overwritten below
        for (q, r) in part_slot_ranges.iter().enumerate() {
            col_cursor[q] = r.start;
        }
        for c in 0..num_chunks {
            for q in 0..num_partitions {
                let cell = &mut chunk_part_msgs[c * num_partitions + q];
                let count = *cell;
                *cell = col_cursor[q];
                col_cursor[q] += count;
            }
        }
        let chunk_cursors = chunk_part_msgs;

        // Pass 2 (parallel): slot assignment and per-slot destination
        // counts. Each chunk's writes are confined to its own vertex range
        // (intra_dst, msg_dst_part, msg_slot) and its own slot blocks
        // (slot_dest_count).
        let mut intra_dst = vec![0u32; total_intra as usize];
        let mut msg_dst_part = vec![0u32; total_msgs as usize];
        let mut msg_slot = vec![0u64; total_msgs as usize];
        let mut slot_dest_count = vec![0u64; total_msgs as usize];
        {
            let intra_dst_s = SharedSlice::new(&mut intra_dst);
            let msg_dst_part_s = SharedSlice::new(&mut msg_dst_part);
            let msg_slot_s = SharedSlice::new(&mut msg_slot);
            let sdc_s = SharedSlice::new(&mut slot_dest_count);
            let intra_offsets = &intra_offsets;
            let msg_offsets = &msg_offsets;
            let chunk_cursors = &chunk_cursors;
            run_indexed(num_chunks, threads, |c| {
                let vr = chunk_range(c);
                let mut cursors =
                    chunk_cursors[c * num_partitions..(c + 1) * num_partitions].to_vec();
                let mut intra_cur = intra_offsets[vr.start] as usize;
                let mut msg_cur = msg_offsets[vr.start] as usize;
                for v in vr {
                    let v = v as u32;
                    let pv = part_of(v);
                    let mut run_part = usize::MAX;
                    let mut run_slot = 0u64;
                    for &t in csr.neighbors(v) {
                        let pt = part_of(t);
                        if pt == pv && !include_intra_in_bins {
                            // SAFETY: intra_cur stays inside this chunk's
                            // intra_offsets range.
                            unsafe { intra_dst_s.write(intra_cur, t) };
                            intra_cur += 1;
                            continue;
                        }
                        if pt != run_part || !compress_inter {
                            run_part = pt;
                            run_slot = cursors[pt];
                            cursors[pt] += 1;
                            // SAFETY: msg_cur stays inside this chunk's
                            // msg_offsets range.
                            unsafe {
                                msg_dst_part_s.write(msg_cur, pt as u32);
                                msg_slot_s.write(msg_cur, run_slot);
                            }
                            msg_cur += 1;
                        }
                        // SAFETY: run_slot came from this chunk's cursor
                        // block — no other chunk touches it.
                        unsafe { sdc_s.update(run_slot as usize, |x| *x += 1) };
                    }
                }
                debug_assert_eq!(intra_cur as u64, intra_offsets[chunk_range(c).end]);
                debug_assert_eq!(msg_cur as u64, msg_offsets[chunk_range(c).end]);
            });
        }

        let mut dest_offsets = vec![0u64; total_msgs as usize + 1];
        for k in 0..total_msgs as usize {
            dest_offsets[k + 1] = dest_offsets[k] + slot_dest_count[k];
        }
        let total_dests = dest_offsets[total_msgs as usize];

        // Pass 3 (parallel): destination lists. A slot's whole destination
        // run comes from a single (vertex, partition) neighbour run — sorted
        // adjacency makes partition runs contiguous — so a run-local fill
        // cursor suffices and every dest_verts index is written by exactly
        // one chunk.
        let mut dest_verts = vec![0u32; total_dests as usize];
        {
            let dest_verts_s = SharedSlice::new(&mut dest_verts);
            let msg_offsets = &msg_offsets;
            let msg_slot = &msg_slot;
            let dest_offsets = &dest_offsets;
            run_indexed(num_chunks, threads, |c| {
                let vr = chunk_range(c);
                let mut msg_cur = msg_offsets[vr.start] as usize;
                for v in vr {
                    let v = v as u32;
                    let pv = part_of(v);
                    let mut run_part = usize::MAX;
                    let mut fill = 0u64;
                    for &t in csr.neighbors(v) {
                        let pt = part_of(t);
                        if pt == pv && !include_intra_in_bins {
                            continue;
                        }
                        if pt != run_part || !compress_inter {
                            run_part = pt;
                            fill = dest_offsets[msg_slot[msg_cur] as usize];
                            msg_cur += 1;
                        }
                        // SAFETY: this slot's dest range belongs to this
                        // run alone.
                        unsafe { dest_verts_s.write(fill as usize, t) };
                        fill += 1;
                    }
                }
            });
        }

        // Pass 4 (parallel over source partitions): the PNG scatter view.
        // Partition p's messages occupy png_src[msg_offsets[v_lo(p)]..
        // msg_offsets[v_hi(p))] — the sequential writer's src_cur equals
        // msg_offsets[v_lo] when it reaches p — so partitions write disjoint
        // png_src ranges; the per-partition pair lists are concatenated
        // sequentially afterwards.
        let mut png_src = vec![0u32; total_msgs as usize];
        let mut per_part_pairs: Vec<Vec<PngPair>> = vec![Vec::new(); num_partitions];
        {
            let png_src_s = SharedSlice::new(&mut png_src);
            let pairs_s = SharedSlice::new(&mut per_part_pairs);
            let msg_offsets = &msg_offsets;
            let msg_dst_part = &msg_dst_part;
            let msg_slot = &msg_slot;
            run_indexed(num_partitions, threads, |p| {
                let v_lo = (p * verts_per_partition).min(n);
                let v_hi = ((p + 1) * verts_per_partition).min(n);
                let mut triples: Vec<(u32, u64, u32)> = Vec::new(); // (q, slot, v)
                for v in v_lo as u32..v_hi as u32 {
                    let lo = msg_offsets[v as usize] as usize;
                    let hi = msg_offsets[v as usize + 1] as usize;
                    for k in lo..hi {
                        triples.push((msg_dst_part[k], msg_slot[k], v));
                    }
                }
                triples.sort_unstable();
                let mut pairs = Vec::new();
                let mut src_cur = msg_offsets[v_lo];
                let mut i = 0usize;
                while i < triples.len() {
                    let q = triples[i].0;
                    let slot_start = triples[i].1;
                    let src_start = src_cur;
                    let mut len = 0u32;
                    while i < triples.len() && triples[i].0 == q {
                        debug_assert_eq!(
                            triples[i].1,
                            slot_start + len as u64,
                            "slots not contiguous"
                        );
                        // SAFETY: src_cur stays inside partition p's
                        // msg_offsets range.
                        unsafe { png_src_s.write(src_cur as usize, triples[i].2) };
                        src_cur += 1;
                        len += 1;
                        i += 1;
                    }
                    pairs.push(PngPair { dst_part: q, slot_start, src_start, len });
                }
                debug_assert_eq!(src_cur, msg_offsets[v_hi]);
                // SAFETY: element p is this partition's alone.
                unsafe { pairs_s.write(p, pairs) };
            });
        }
        let mut png_index = Vec::with_capacity(num_partitions);
        let mut png_pairs: Vec<PngPair> = Vec::new();
        for pairs in per_part_pairs {
            let start = png_pairs.len() as u32;
            png_pairs.extend_from_slice(&pairs);
            png_index.push(start..png_pairs.len() as u32);
        }

        PcpmLayout {
            verts_per_partition,
            num_partitions,
            num_vertices: n,
            intra_offsets,
            intra_dst,
            msg_offsets,
            msg_dst_part,
            msg_slot,
            part_slot_ranges,
            dest_offsets,
            dest_verts,
            total_msgs,
            include_intra_in_bins,
            png_index,
            png_pairs,
            png_src,
        }
    }

    /// PNG bins of source partition `p` (scatter iteration view).
    #[inline]
    pub fn png_of(&self, p: usize) -> &[PngPair] {
        let r = self.png_index[p].clone();
        &self.png_pairs[r.start as usize..r.end as usize]
    }

    /// Source vertices of one PNG bin.
    #[inline]
    pub fn png_sources(&self, pair: &PngPair) -> &[u32] {
        &self.png_src[pair.src_start as usize..pair.src_start as usize + pair.len as usize]
    }

    /// Partition of a vertex.
    #[inline]
    pub fn partition_of(&self, v: u32) -> usize {
        v as usize / self.verts_per_partition
    }

    /// Vertex range of a partition.
    pub fn partition_vertices(&self, p: usize) -> Range<u32> {
        let lo = p * self.verts_per_partition;
        let hi = ((p + 1) * self.verts_per_partition).min(self.num_vertices);
        lo as u32..hi as u32
    }

    /// Intra destinations of a vertex.
    #[inline]
    pub fn intra_of(&self, v: u32) -> &[u32] {
        let lo = self.intra_offsets[v as usize] as usize;
        let hi = self.intra_offsets[v as usize + 1] as usize;
        &self.intra_dst[lo..hi]
    }

    /// Message slots of a vertex, parallel `(dst_part, slot)` views.
    #[inline]
    pub fn msgs_of(&self, v: u32) -> (&[u32], &[u64]) {
        let lo = self.msg_offsets[v as usize] as usize;
        let hi = self.msg_offsets[v as usize + 1] as usize;
        (&self.msg_dst_part[lo..hi], &self.msg_slot[lo..hi])
    }

    /// Destination vertices consuming slot `k`.
    #[inline]
    pub fn dests_of(&self, slot: u64) -> &[u32] {
        let lo = self.dest_offsets[slot as usize] as usize;
        let hi = self.dest_offsets[slot as usize + 1] as usize;
        &self.dest_verts[lo..hi]
    }

    /// Messages of source partition `p` as a range of `png_src` indices
    /// (its PNG bins are contiguous there, in bin order).
    pub fn png_msgs(&self, p: usize) -> Range<usize> {
        let pairs = self.png_of(p);
        match (pairs.first(), pairs.last()) {
            (Some(a), Some(z)) => a.src_start as usize..(z.src_start + z.len as u64) as usize,
            _ => 0..0,
        }
    }

    /// Partition `p`'s in-edges: its run of `intra_dst` (the intra edges of
    /// its sources) and its inbox's run of `dest_verts`.
    fn in_runs(&self, p: usize) -> (Range<usize>, Range<usize>) {
        let vr = self.partition_vertices(p);
        let sr = &self.part_slot_ranges[p];
        (
            self.intra_offsets[vr.start as usize] as usize
                ..self.intra_offsets[vr.end as usize] as usize,
            self.dest_offsets[sr.start as usize] as usize
                ..self.dest_offsets[sr.end as usize] as usize,
        )
    }

    /// In-edges of each vertex of partition `p`: the intra edges of its
    /// sources plus the destinations of its inbox (no transpose needed).
    pub fn in_degrees(&self, p: usize) -> Vec<u32> {
        let vr = self.partition_vertices(p);
        let (intra, inbox) = self.in_runs(p);
        let mut deg = vec![0u32; vr.len()];
        for &d in self.intra_dst[intra].iter().chain(&self.dest_verts[inbox]) {
            deg[(d - vr.start) as usize] += 1;
        }
        deg
    }

    /// Partition `p`'s intra and inbox lists cut down to the destinations in
    /// `dsts`, for a thread that shares `p` with others (the plan's level
    /// below the partition). Every list is sorted, so each cut is one
    /// contiguous run, copied in the layout's order; entries with no
    /// destination in `dsts` are dropped.
    pub fn sub_range_lists(&self, p: usize, dsts: Range<u32>) -> SubRangeLists {
        let vr = self.partition_vertices(p);
        // A bound at the partition's edge cuts nothing: skip its search.
        let cut = |l: &[u32], at: u32| match at {
            a if a <= vr.start => 0,
            a if a >= vr.end => l.len(),
            a => l.partition_point(|&d| d < a),
        };
        let keep = |l: &[u32], key: usize, kl: &mut KeyedLists| {
            let run = &l[cut(l, dsts.start)..cut(l, dsts.end)];
            if !run.is_empty() {
                kl.keys.push(key as u32);
                kl.items.extend_from_slice(run);
                kl.offsets.push(kl.items.len() as u64);
            }
        };
        let empty = || KeyedLists { keys: Vec::new(), offsets: vec![0], items: Vec::new() };
        let mut out = SubRangeLists { intra: empty(), inbox: empty() };
        for (i, v) in vr.clone().enumerate() {
            keep(self.intra_of(v), i, &mut out.intra);
        }
        for (i, k) in self.part_slot_ranges[p].clone().enumerate() {
            keep(self.dests_of(k), i, &mut out.inbox);
        }
        out
    }

    /// Inter-edge compression ratio achieved (≥ 1).
    pub fn compression_ratio(&self) -> f64 {
        if self.total_msgs == 0 {
            1.0
        } else {
            self.dest_verts.len() as f64 / self.total_msgs as f64
        }
    }

    /// Total edges represented (intra + all destination entries). Must equal
    /// the source CSR's edge count.
    pub fn total_edges(&self) -> u64 {
        self.intra_dst.len() as u64 + self.dest_verts.len() as u64
    }
}

/// The shared plan's in-edge counts, read off the layout; a partition's
/// total is the length of its two runs.
impl hipa_partition::InDegrees for &PcpmLayout {
    fn in_degrees(&mut self, p: usize) -> Vec<u32> {
        PcpmLayout::in_degrees(self, p)
    }
    fn in_edges(&mut self, p: usize) -> u64 {
        let (intra, inbox) = self.in_runs(p);
        (intra.len() + inbox.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipa_graph::{Csr, EdgeList};

    /// Fig. 4's example: v1 has intra edge to v2 and two inter-edges to
    /// v6, v7 in the next partition — compressed into one message.
    #[test]
    fn fig4_compression() {
        // Partitions of 4: {0..4}, {4..8}.
        let el = EdgeList::new(8, vec![(1, 2).into(), (1, 6).into(), (1, 7).into()]);
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, 4, false);
        assert_eq!(l.intra_of(1), &[2]);
        let (parts, slots) = l.msgs_of(1);
        assert_eq!(parts, &[1]);
        assert_eq!(l.dests_of(slots[0]), &[6, 7]);
        assert_eq!(l.total_msgs, 1);
        assert!((l.compression_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(l.total_edges(), 3);
    }

    #[test]
    fn slots_grouped_by_destination_and_source_ordered() {
        // 3 partitions of 2 vertices; several sources message partition 2.
        let el = EdgeList::from_pairs([(0, 4), (0, 5), (1, 4), (2, 5), (3, 0)]);
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, 2, false);
        assert_eq!(l.num_partitions, 3);
        // Partition 2's inbox: messages from v0, v1, v2 in source order.
        let r = l.part_slot_ranges[2].clone();
        assert_eq!(r.end - r.start, 3);
        let (_, s0) = l.msgs_of(0);
        let (_, s1) = l.msgs_of(1);
        let (_, s2) = l.msgs_of(2);
        assert_eq!(s0, &[r.start]);
        assert_eq!(s1, &[r.start + 1]);
        assert_eq!(s2, &[r.start + 2]);
        assert_eq!(l.dests_of(s0[0]), &[4, 5]);
        // Partition 0's inbox holds v3's message.
        let (_, s3) = l.msgs_of(3);
        assert_eq!(l.part_slot_ranges[0].clone().count(), 1);
        assert_eq!(l.dests_of(s3[0]), &[0]);
    }

    #[test]
    fn include_intra_in_bins_moves_everything_to_slots() {
        let el = EdgeList::from_pairs([(0, 1), (0, 2), (1, 0)]);
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, 4, true); // single partition
        assert!(l.intra_dst.is_empty());
        assert_eq!(l.total_msgs, 2); // one per source vertex into part 0
        assert_eq!(l.total_edges(), 3);
    }

    #[test]
    fn single_partition_all_intra() {
        let el = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0)]);
        let csr = Csr::from_edge_list(&el);
        let l = PcpmLayout::build(&csr, 100, false);
        assert_eq!(l.num_partitions, 1);
        assert_eq!(l.total_msgs, 0);
        assert_eq!(l.intra_dst.len(), 3);
    }

    #[test]
    fn edge_conservation_on_random_graph() {
        let g = hipa_graph::datasets::small_test_graph(9);
        for vpp in [8usize, 64, 300, 5000] {
            let l = PcpmLayout::build(g.out_csr(), vpp, false);
            assert_eq!(l.total_edges() as usize, g.num_edges(), "vpp={vpp}");
            let lb = PcpmLayout::build(g.out_csr(), vpp, true);
            assert_eq!(lb.total_edges() as usize, g.num_edges(), "binned vpp={vpp}");
            // Binned mode has at least as many messages.
            assert!(lb.total_msgs >= l.total_msgs);
        }
    }

    #[test]
    fn larger_partitions_compress_better() {
        let g = hipa_graph::datasets::small_test_graph(10);
        let small = PcpmLayout::build(g.out_csr(), 16, false);
        let large = PcpmLayout::build(g.out_csr(), 256, false);
        // Fewer, fatter messages with larger partitions (paper §4.5: "the
        // larger a partition, the better the compression").
        assert!(large.total_msgs < small.total_msgs);
    }

    #[test]
    fn png_view_is_consistent_with_slot_view() {
        let g = hipa_graph::datasets::small_test_graph(12);
        for binned in [false, true] {
            let l = PcpmLayout::build(g.out_csr(), 64, binned);
            // Reconstruct slot -> source vertex from the PNG view and check
            // it against the per-vertex message view.
            let mut slot_src = vec![u32::MAX; l.total_msgs as usize];
            for p in 0..l.num_partitions {
                for pair in l.png_of(p) {
                    for (k, &src) in l.png_sources(pair).iter().enumerate() {
                        let slot = pair.slot_start + k as u64;
                        assert_eq!(slot_src[slot as usize], u32::MAX, "slot double-covered");
                        slot_src[slot as usize] = src;
                        assert_eq!(l.partition_of(src), p, "source outside its partition");
                        // Slot must lie in the destination partition's range.
                        let r = &l.part_slot_ranges[pair.dst_part as usize];
                        assert!(r.contains(&slot));
                    }
                }
            }
            for v in 0..l.num_vertices as u32 {
                let (parts, slots) = l.msgs_of(v);
                for (q, s) in parts.iter().zip(slots) {
                    assert_eq!(slot_src[*s as usize], v);
                    let _ = q;
                }
            }
            assert!(!slot_src.contains(&u32::MAX), "uncovered slot");
        }
    }

    #[test]
    fn slot_ranges_tile_message_space() {
        let g = hipa_graph::datasets::small_test_graph(11);
        let l = PcpmLayout::build(g.out_csr(), 64, false);
        let mut expect = 0u64;
        for r in &l.part_slot_ranges {
            assert_eq!(r.start, expect);
            expect = r.end;
        }
        assert_eq!(expect, l.total_msgs);
        assert_eq!(*l.dest_offsets.last().unwrap() as usize, l.dest_verts.len());
    }
}
