//! Pinned single-server digests for the cycle-simulation kernel.
//!
//! The benchmark's goldens cover the default single-server path (ILP1 and
//! MEM1 under CoScale) and the fleet layers. These constants pin the paths
//! they do not reach: the prefetcher, the MLP window, open-page scheduling
//! and row-interleaved mapping, small and wide L2 geometries that evict
//! and write back, shared voltage domains, and the Offline policy that
//! clones the whole system every epoch. Each constant is the FNV-1a hash
//! of [`RunResult::digest`] at `SimConfig::small` with 1 M instructions
//! per application, computed on the engine before its agenda, read-tag
//! slab and 16-byte L2 ways replaced the event heap, the tag map and the
//! way structs. One more pins a full 16-core run, computed before the
//! 8-byte ways gave the L2's recency stamps a limit; those ways renumbered
//! their stamps during it, and the ways that replaced them, a 4-byte tag
//! and a 1-byte recency rank each, keep no stamp at all. A kernel change
//! that alters any event order, cache decision or counter moves at least
//! one of them; the fix is in the kernel, never in the constant.

use coscale_repro::memsim::{AddrMap, PagePolicy, SchedPolicy};
use coscale_repro::prelude::*;

/// FNV-1a over the digest text (same constant-pinning scheme as
/// `tests/invariants.rs`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn small(mix_name: &str) -> SimConfig {
    let mut c = SimConfig::small(mix(mix_name).expect("known mix"));
    c.target_instrs = 1_000_000;
    c
}

fn check(label: &str, golden: u64, config: SimConfig, policy: PolicyKind) {
    let d = run_policy(config, policy).digest();
    let got = fnv1a(d.as_bytes());
    println!("{label} fnv = {got}");
    assert_eq!(got, golden, "{label}: digest drifted:\n{d}");
}

#[test]
fn mix2_under_coscale() {
    check(
        "mix2_coscale",
        8314365745626694964,
        small("MIX2"),
        PolicyKind::CoScale,
    );
}

#[test]
fn mem1_with_the_prefetcher() {
    let mut c = small("MEM1");
    c.core.prefetch = true;
    check("mem1_prefetch", 7206736028731187170, c, PolicyKind::CoScale);
}

#[test]
fn mem1_with_the_prefetcher_on_row_interleaved_lines() {
    // A demand read and its next-line prefetch usually leave in one core
    // step; row-interleaved mapping sends both to one channel, so the
    // order they are issued in shows in the result.
    let mut c = small("MEM1");
    c.core.prefetch = true;
    c.mem.addr_map = AddrMap::RowInterleaved;
    check(
        "mem1_prefetch_row_interleaved",
        15663709107577767243,
        c,
        PolicyKind::CoScale,
    );
}

#[test]
fn mem2_with_an_mlp_window() {
    let mut c = small("MEM2");
    c.core.pipeline = PipelineMode::MlpWindow(128);
    check("mem2_mlp", 17781693566340734477, c, PolicyKind::CoScale);
}

#[test]
fn mem4_with_an_mlp_window_and_the_prefetcher() {
    let mut c = small("MEM4");
    c.core.pipeline = PipelineMode::MlpWindow(128);
    c.core.prefetch = true;
    check(
        "mem4_mlp_prefetch",
        16710106773178660100,
        c,
        PolicyKind::CoScale,
    );
}

#[test]
fn mid1_under_offline() {
    check(
        "mid1_offline",
        7294451610126373828,
        small("MID1"),
        PolicyKind::Offline,
    );
}

#[test]
fn mix3_under_semi_coordinated() {
    check(
        "mix3_semi",
        12074451797108924491,
        small("MIX3"),
        PolicyKind::SemiCoordinated,
    );
}

#[test]
fn mem3_open_page_row_interleaved_fr_fcfs_under_memscale() {
    let mut c = small("MEM3");
    c.mem.page_policy = PagePolicy::Open;
    c.mem.addr_map = AddrMap::RowInterleaved;
    c.mem.sched = SchedPolicy::FrFcfs;
    check(
        "mem3_open_frfcfs",
        6596455327468600333,
        c,
        PolicyKind::MemScale,
    );
}

#[test]
fn mem1_with_a_small_l2_evicts_and_writes_back() {
    let mut c = small("MEM1");
    c.cache.size_bytes = 256 * 1024;
    c.cache.ways = 4;
    check(
        "mem1_l2_256k_4way",
        1086207415698537666,
        c,
        PolicyKind::CoScale,
    );
}

#[test]
fn mid2_with_a_wide_l2_under_cpu_only() {
    let mut c = small("MID2");
    c.cache.size_bytes = 512 * 1024;
    c.cache.ways = 32;
    check(
        "mid2_l2_512k_32way",
        5848835537145504477,
        c,
        PolicyKind::CpuOnly,
    );
}

/// The only run here long enough (about 6.9 M accesses and fills) to
/// exhaust the 22-bit recency stamps the 8-byte L2 ways kept, which
/// renumbered their ways mid-run. Computed before the stamps had a limit;
/// the rank-ordered ways that replaced them must match it too.
#[test]
fn mem1_16_cores_crosses_the_l2_stamp_limit() {
    let mut c = SimConfig::for_mix(mix("MEM1").expect("known mix"));
    c.target_instrs = 5_000_000;
    check(
        "mem1_16core_stamp_limit",
        17381996227878673951,
        c,
        PolicyKind::CoScale,
    );
}

#[test]
fn mix1_with_shared_voltage_domains_under_uncoordinated() {
    let mut c = small("MIX1");
    c.voltage_domain_cores = 2;
    check(
        "mix1_domains_uncoord",
        4808730868730313734,
        c,
        PolicyKind::Uncoordinated,
    );
}
