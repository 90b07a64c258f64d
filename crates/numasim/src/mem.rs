//! Simulated NUMA address space: named regions, page-granular node
//! ownership, and placement policies.
//!
//! Engines allocate a region per data structure (rank array, CSR offsets,
//! edge array, message bins, …) with a [`Placement`] policy. The address
//! space assigns each 4 KB page an owning NUMA node; the machine then
//! classifies every DRAM-level access as local or remote by comparing the
//! page owner with the accessing core's socket — exactly what the memory
//! controller counters the paper reads (remote MApE, Fig. 5) observe.

/// Handle to an allocated region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub(crate) usize);

impl RegionId {
    /// The region's index in allocation order.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from an allocation-order index (diagnostics).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        RegionId(i)
    }
}

/// Simulated page size.
pub const PAGE_BYTES: usize = 4096;

/// NUMA placement policy for a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// All pages on one node (`numa_alloc_onnode`).
    Node(usize),
    /// Pages round-robin across all nodes (`numa_alloc_interleaved`, the
    /// default a NUMA-oblivious allocator effectively converges to for big
    /// shared arrays under first-touch by 40 scattered threads).
    Interleaved,
    /// Explicit byte ranges per node: `(end_offset, node)` pairs with
    /// ascending, final `end_offset == region length`. This is HiPa's
    /// partition-mapped layout (§3.4): one contiguous virtual range whose
    /// physical pages follow the NUMA partitioning. A page is owned by the
    /// node covering its first byte.
    Blocked(Vec<(usize, usize)>),
    /// Pages are owned by the node of the first core that touches them —
    /// Linux's default policy. Untouched pages read as node 0.
    FirstTouch,
}

/// Marker for a page not yet claimed under [`Placement::FirstTouch`].
const UNTOUCHED: u8 = u8::MAX;

#[derive(Debug, Clone)]
struct Region {
    name: String,
    base: u64,
    len: usize,
    /// Owning node per page.
    page_owner: Vec<u8>,
}

/// The simulated address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    nodes: usize,
    regions: Vec<Region>,
    next_base: u64,
}

impl AddressSpace {
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 1 && nodes < u8::MAX as usize, "node marker 255 is reserved");
        AddressSpace { nodes, regions: Vec::new(), next_base: PAGE_BYTES as u64 }
    }

    /// Allocates a region of `len` bytes with the given placement.
    ///
    /// # Panics
    /// Panics if a `Blocked` placement is malformed (non-ascending or not
    /// covering the region) or names a node that does not exist.
    pub fn alloc(&mut self, name: &str, len: usize, placement: Placement) -> RegionId {
        let pages = len.div_ceil(PAGE_BYTES);
        let mut page_owner = vec![0u8; pages];
        match &placement {
            Placement::Node(n) => {
                assert!(*n < self.nodes, "node {n} out of range");
                page_owner.fill(*n as u8);
            }
            Placement::Interleaved => {
                for (i, p) in page_owner.iter_mut().enumerate() {
                    *p = (i % self.nodes) as u8;
                }
            }
            Placement::FirstTouch => {
                page_owner.fill(UNTOUCHED);
            }
            Placement::Blocked(ranges) => {
                assert!(!ranges.is_empty(), "empty blocked placement");
                let mut prev = 0usize;
                for &(end, node) in ranges {
                    // Equal ends are allowed: a node may own zero bytes of an
                    // array (e.g. no messages destined to its partitions).
                    assert!(end >= prev, "blocked ranges must be non-decreasing");
                    assert!(node < self.nodes, "node {node} out of range");
                    prev = end;
                }
                assert!(prev >= len, "blocked placement covers {prev} of {len} bytes");
                for (i, p) in page_owner.iter_mut().enumerate() {
                    let first_byte = i * PAGE_BYTES;
                    let node = ranges
                        .iter()
                        .find(|&&(end, _)| first_byte < end)
                        .map(|&(_, n)| n)
                        .unwrap_or(ranges.last().unwrap().1);
                    *p = node as u8;
                }
            }
        }
        // Regions are page-aligned and separated by a guard page so distinct
        // regions never share a cache line.
        let base = self.next_base;
        let span = (pages + 1) * PAGE_BYTES;
        self.next_base += span as u64;
        self.regions.push(Region { name: name.to_string(), base, len, page_owner });
        RegionId(self.regions.len() - 1)
    }

    /// Global byte address of `offset` within the region.
    #[inline]
    pub fn addr(&self, r: RegionId, offset: usize) -> u64 {
        let reg = &self.regions[r.0];
        debug_assert!(
            offset < reg.len.max(1),
            "offset {offset} beyond region '{}' ({} bytes)",
            reg.name,
            reg.len
        );
        reg.base + offset as u64
    }

    /// Region containing a global address.
    #[inline]
    pub fn region_of_addr(&self, addr: u64) -> RegionId {
        // Regions are allocated in ascending base order; binary search.
        match self.regions.binary_search_by(|r| {
            if addr < r.base {
                std::cmp::Ordering::Greater
            } else if addr >= r.base + (r.page_owner.len() * PAGE_BYTES) as u64 {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => RegionId(i),
            Err(_) => panic!("address {addr:#x} not in any region"),
        }
    }

    /// Owning NUMA node of the page containing a global address.
    #[inline]
    pub fn owner_of_addr(&self, addr: u64) -> usize {
        let reg = &self.regions[self.region_of_addr(addr).0];
        let page = ((addr - reg.base) as usize) / PAGE_BYTES;
        let o = reg.page_owner[page];
        if o == UNTOUCHED {
            0
        } else {
            o as usize
        }
    }

    /// First-touch claim: if the page holding `offset` is untouched, it
    /// becomes owned by `node`. Returns the (possibly just-assigned) owner.
    #[inline]
    pub fn touch(&mut self, r: RegionId, offset: usize, node: usize) -> usize {
        let reg = &mut self.regions[r.0];
        let p = &mut reg.page_owner[offset / PAGE_BYTES];
        if *p == UNTOUCHED {
            *p = node as u8;
        }
        *p as usize
    }

    /// Owning node of `offset` within a region (fast path: no search).
    /// Untouched first-touch pages read as node 0.
    #[inline]
    pub fn owner_of(&self, r: RegionId, offset: usize) -> usize {
        let reg = &self.regions[r.0];
        let o = reg.page_owner[offset / PAGE_BYTES];
        if o == UNTOUCHED {
            0
        } else {
            o as usize
        }
    }

    pub fn region_len(&self, r: RegionId) -> usize {
        self.regions[r.0].len
    }

    pub fn region_name(&self, r: RegionId) -> &str {
        &self.regions[r.0].name
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_placement_owns_all_pages() {
        let mut s = AddressSpace::new(2);
        let r = s.alloc("a", 3 * PAGE_BYTES, Placement::Node(1));
        for off in [0, PAGE_BYTES, 3 * PAGE_BYTES - 1] {
            assert_eq!(s.owner_of(r, off), 1);
        }
    }

    #[test]
    fn interleaved_round_robins() {
        let mut s = AddressSpace::new(2);
        let r = s.alloc("a", 4 * PAGE_BYTES, Placement::Interleaved);
        assert_eq!(s.owner_of(r, 0), 0);
        assert_eq!(s.owner_of(r, PAGE_BYTES), 1);
        assert_eq!(s.owner_of(r, 2 * PAGE_BYTES), 0);
    }

    #[test]
    fn blocked_assigns_by_range() {
        let mut s = AddressSpace::new(2);
        let len = 10 * PAGE_BYTES;
        let r = s.alloc("a", len, Placement::Blocked(vec![(6 * PAGE_BYTES, 0), (len, 1)]));
        assert_eq!(s.owner_of(r, 5 * PAGE_BYTES), 0);
        assert_eq!(s.owner_of(r, 6 * PAGE_BYTES), 1);
        assert_eq!(s.owner_of(r, len - 1), 1);
    }

    #[test]
    fn blocked_mid_page_boundary_uses_first_byte() {
        let mut s = AddressSpace::new(2);
        // Boundary in the middle of page 0: the page belongs to the node
        // covering its first byte (node 0).
        let r = s.alloc("a", PAGE_BYTES, Placement::Blocked(vec![(100, 0), (PAGE_BYTES, 1)]));
        assert_eq!(s.owner_of(r, 0), 0);
        assert_eq!(s.owner_of(r, 200), 0);
    }

    #[test]
    fn addr_and_owner_of_addr_agree() {
        let mut s = AddressSpace::new(4);
        let a = s.alloc("a", 2 * PAGE_BYTES, Placement::Node(3));
        let b = s.alloc("b", PAGE_BYTES, Placement::Node(1));
        assert_eq!(s.owner_of_addr(s.addr(a, 10)), 3);
        assert_eq!(s.owner_of_addr(s.addr(b, 10)), 1);
    }

    #[test]
    fn regions_do_not_share_lines() {
        let mut s = AddressSpace::new(1);
        let a = s.alloc("a", 100, Placement::Node(0));
        let b = s.alloc("b", 100, Placement::Node(0));
        assert!(s.addr(b, 0) / 64 > s.addr(a, 99) / 64);
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn blocked_must_cover_region() {
        let mut s = AddressSpace::new(2);
        s.alloc("a", 2 * PAGE_BYTES, Placement::Blocked(vec![(PAGE_BYTES, 0)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_placement_checks_node() {
        let mut s = AddressSpace::new(2);
        s.alloc("a", 10, Placement::Node(2));
    }
}
