//! A deterministic NUMA multicore machine simulator.
//!
//! The paper's measurements (execution time, remote memory accesses, LLC
//! hits, scalability under hyper-threading) were taken on two real Intel
//! machines. The development host has no NUMA and two vCPUs shared with
//! other jobs (a 2-thread spin loop reads anywhere from 1.0x to 2.0x of one
//! thread), so the reproduction substitutes a parameterised *model* of those
//! machines — see `DESIGN.md` §2 for the substitution argument.
//!
//! The simulator executes the *actual* computation of an engine: the engine
//! performs its real loads/stores on its own Rust data and mirrors each of
//! them through a [`ThreadCtx`], which drives
//!
//! * a three-level set-associative write-back cache hierarchy
//!   ([`cache`]) — private L1/L2 per physical core (way-partitioned between
//!   SMT siblings when both are active), shared LLC per socket, with
//!   inclusive (Haswell) or non-inclusive (Skylake) LLC policy;
//! * a NUMA address space ([`mem`]) where every region's pages carry an
//!   owning node, so each DRAM-level access is classified local or remote;
//! * a cost model ([`spec`]) with distinct random-access and streaming DRAM
//!   costs, plus a per-phase roofline bandwidth-congestion model
//!   ([`machine`]) that stretches a phase when its threads demand more
//!   bytes/cycle from a node's DRAM (or from the socket interconnect) than
//!   the hardware provides;
//! * an OS-scheduler model ([`sched`]) that places threads randomly (as a
//!   NUMA-oblivious runtime would), counts thread creations, and counts the
//!   migrations incurred by NUMA binding (paper §3.3's 160-vs-16 argument).
//!
//! Everything is deterministic given the machine seed, so every table in
//! `EXPERIMENTS.md` regenerates bit-identically.
#![forbid(unsafe_code)]

pub mod cache;
pub mod counters;
pub mod machine;
pub mod mem;
pub mod sched;
pub mod spec;
pub mod topology;

pub use cache::{Cache, CacheConfig};
pub use counters::{MemCounters, PhaseStat, SimReport};
pub use machine::{PhaseBalance, PoolId, SimMachine, ThreadCtx};
pub use mem::{Placement, RegionId};
pub use sched::ThreadPlacement;
pub use spec::{CostModel, MachineSpec};
pub use topology::{LogicalCpu, Topology};
