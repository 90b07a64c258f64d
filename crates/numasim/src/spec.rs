//! Machine specifications: topology + cache geometry + cost model, with the
//! two presets the paper evaluates on and a scaling knob that shrinks the
//! caches alongside the scaled-down graph datasets.

use crate::cache::CacheConfig;
use crate::topology::Topology;

/// Latency/bandwidth/overhead parameters, all in core cycles unless noted.
///
/// All memory costs are *effective* (throughput) costs, not raw load-to-use
/// latencies: an out-of-order core keeps ~8–10 misses in flight, so the
/// effective cost of a random DRAM access is roughly latency / MLP. The
/// streaming costs are derived directly from the paper's §2.2 measurement —
/// sequentially reading 1 GB takes 0.06 s locally vs 0.40 s remotely on the
/// Xeon 4210, i.e. ≈ 8 vs ≈ 53 cycles per 64-byte line at 2.2 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    pub ghz: f64,
    pub l1_hit: f64,
    pub l2_hit: f64,
    pub llc_hit: f64,
    /// Random (pointer-chasing) DRAM access, local node.
    pub dram_random_local: f64,
    /// Random DRAM access, remote node.
    pub dram_random_remote: f64,
    /// Per-line cost of streaming from local DRAM.
    pub dram_stream_local: f64,
    /// Per-line cost of streaming from remote DRAM.
    pub dram_stream_remote: f64,
    /// Sustainable DRAM bandwidth per NUMA node, bytes per cycle.
    pub node_bw_bytes_per_cycle: f64,
    /// Sustainable cross-socket interconnect bandwidth, bytes per cycle.
    pub interconnect_bw_bytes_per_cycle: f64,
    /// Extra cost of an atomic read-modify-write beyond the plain access.
    pub atomic_extra: f64,
    /// One arithmetic op (fractional — superscalar cores retire several per
    /// cycle).
    pub op: f64,
    /// Combined throughput of two SMT siblings sharing a physical core,
    /// relative to one thread running alone (≈1.2–1.3 on Intel). Each
    /// sharing thread runs at `smt_throughput / 2` of full speed.
    pub smt_throughput: f64,
    /// Creating a pool of threads (one parallel region entry).
    pub spawn: f64,
    /// Migrating one thread across cores/nodes (§3.3: context moves through
    /// remote memory).
    pub migration: f64,
    /// Barrier synchronisation at the end of a phase.
    pub barrier: f64,
}

/// A complete simulated machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    pub name: String,
    pub topology: Topology,
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    /// LLC *per socket*.
    pub llc: CacheConfig,
    /// Inclusive LLC (Haswell) back-invalidates private caches on eviction;
    /// non-inclusive (Skylake) fills bypass the LLC and it acts as a victim
    /// cache for L2 evictions. §4.5 hinges on this difference.
    pub llc_inclusive: bool,
    pub cost: CostModel,
    /// RNG seed for the OS-placement model.
    pub seed: u64,
}

impl MachineSpec {
    /// The paper's main machine (§4.1): two Intel Xeon Silver 4210
    /// (Skylake-SP derivative, 14 nm), 10 physical / 20 logical cores per
    /// socket, 1 MB L2 per core, 13.75 MB shared non-inclusive LLC,
    /// 128 GB DRAM per node.
    ///
    /// (The 4210's data sheet L1d is 32 KB; the paper's "64 KB" counts
    /// L1i + L1d. The data side is what matters here.)
    pub fn skylake_4210() -> Self {
        MachineSpec {
            name: "skylake-4210".into(),
            topology: Topology::new(2, 10, 2),
            l1: CacheConfig::new(32 * 1024, 64, 8),
            l2: CacheConfig::new(1024 * 1024, 64, 16),
            llc: CacheConfig::new(13_750 * 1024 + 10 * 1024, 64, 11),
            llc_inclusive: false,
            cost: CostModel {
                ghz: 2.2,
                l1_hit: 1.5,
                l2_hit: 5.0,
                llc_hit: 12.0,
                dram_random_local: 25.0,
                dram_random_remote: 30.0,
                dram_stream_local: 8.0,
                dram_stream_remote: 53.0,
                node_bw_bytes_per_cycle: 40.0,
                interconnect_bw_bytes_per_cycle: 12.5,
                atomic_extra: 15.0,
                op: 0.4,
                smt_throughput: 1.2,
                spawn: 12_000.0,
                migration: 40_000.0,
                barrier: 3_000.0,
            },
            seed: 0x5EED_0001,
        }
    }

    /// The paper's older machine (§4.5): two Intel Xeon E5-2667 v3
    /// (Haswell, 22 nm), 8 cores per socket, 256 KB L2 per core, 2.5 MB of
    /// *inclusive* LLC per core, 64 GB total DRAM.
    pub fn haswell_e5_2667() -> Self {
        MachineSpec {
            name: "haswell-e5-2667".into(),
            topology: Topology::new(2, 8, 2),
            l1: CacheConfig::new(32 * 1024, 64, 8),
            l2: CacheConfig::new(256 * 1024, 64, 8),
            llc: CacheConfig::new(20 * 1024 * 1024, 64, 20),
            llc_inclusive: true,
            cost: CostModel {
                ghz: 3.2,
                l1_hit: 1.5,
                l2_hit: 4.0,
                llc_hit: 10.0,
                dram_random_local: 28.0,
                dram_random_remote: 34.0,
                dram_stream_local: 10.0,
                dram_stream_remote: 65.0,
                node_bw_bytes_per_cycle: 26.0,
                interconnect_bw_bytes_per_cycle: 8.5,
                atomic_extra: 16.0,
                op: 0.4,
                smt_throughput: 1.2,
                spawn: 12_000.0,
                migration: 45_000.0,
                barrier: 3_000.0,
            },
            seed: 0x5EED_0002,
        }
    }

    /// A tiny 2-socket machine for unit tests: 2 cores per socket, 2-way
    /// SMT, very small caches so capacity effects appear with toy data.
    pub fn tiny_test() -> Self {
        MachineSpec {
            name: "tiny-test".into(),
            topology: Topology::new(2, 2, 2),
            l1: CacheConfig::new(512, 64, 2),
            l2: CacheConfig::new(4 * 1024, 64, 4),
            llc: CacheConfig::new(16 * 1024, 64, 4),
            llc_inclusive: false,
            cost: CostModel {
                ghz: 1.0,
                l1_hit: 1.5,
                l2_hit: 5.0,
                llc_hit: 12.0,
                dram_random_local: 25.0,
                dram_random_remote: 30.0,
                dram_stream_local: 8.0,
                dram_stream_remote: 53.0,
                node_bw_bytes_per_cycle: 40.0,
                interconnect_bw_bytes_per_cycle: 12.5,
                atomic_extra: 15.0,
                op: 0.4,
                smt_throughput: 1.2,
                spawn: 12_000.0,
                migration: 40_000.0,
                barrier: 3_000.0,
            },
            seed: 0x5EED_00FF,
        }
    }

    /// Shrinks all cache capacities by `divisor`, keeping everything else.
    /// The experiment harnesses pair `scaled(64)` machines with the ~64×
    /// scaled-down datasets so partition-size effects keep their shape
    /// (DESIGN.md §2).
    pub fn scaled(mut self, divisor: usize) -> Self {
        self.l1 = self.l1.scaled(divisor);
        self.l2 = self.l2.scaled(divisor);
        self.llc = self.llc.scaled(divisor);
        self.name = format!("{}/{}x", self.name, divisor);
        self
    }

    /// Restricts to the first `n` sockets (§4.5 single-node experiment).
    pub fn with_sockets(mut self, n: usize) -> Self {
        self.topology = self.topology.with_sockets(n);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_matches_paper_setup() {
        let m = MachineSpec::skylake_4210();
        assert_eq!(m.topology.logical_cpus(), 40);
        assert_eq!(m.l2.size_bytes, 1024 * 1024);
        assert!(!m.llc_inclusive);
    }

    #[test]
    fn haswell_matches_paper_setup() {
        let m = MachineSpec::haswell_e5_2667();
        assert_eq!(m.topology.logical_cpus(), 32);
        assert_eq!(m.l2.size_bytes, 256 * 1024);
        assert!(m.llc_inclusive);
    }

    #[test]
    fn stream_ratio_matches_paper_observation() {
        // §2.2: 1 GB sequential read, 0.06 s local vs 0.40 s remote.
        let c = MachineSpec::skylake_4210().cost;
        let ratio = c.dram_stream_remote / c.dram_stream_local;
        assert!((6.0..7.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn scaled_divides_caches_only() {
        let m = MachineSpec::skylake_4210().scaled(64);
        assert_eq!(m.l2.size_bytes, 16 * 1024);
        assert_eq!(m.topology.logical_cpus(), 40);
        assert_eq!(m.cost.ghz, 2.2);
    }
}
