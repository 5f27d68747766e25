//! The two searches every comparison policy is built from: a CPU-side
//! manager and a memory-side manager, each of which optimizes its own
//! component while *assuming the other stays put*.
//!
//! CPUOnly, Uncoordinated and Semi-coordinated run the core search,
//! MemScale, Uncoordinated and Semi-coordinated the memory walk, and the
//! Offline oracle the core search at every memory frequency. They differ
//! only in the frozen component and in `allowed(i)`, each core's
//! permissible time-per-instruction.

use crate::{Model, Plan};

/// The CPU power manager: chooses per-core frequencies minimizing SER with
/// memory fixed at `mem`, subject to `allowed(i)`. Returns the plan and its
/// SER; when no setting satisfies every core, all cores at maximum.
///
/// The paper is "optimistic about" CPUOnly: it assumes the search
/// considers all combinations of core frequencies. Under the model, given a
/// fixed memory frequency and a fixed epoch-time cap τ (set by the worst
/// core), each core's energy-minimal choice is independent: the lowest
/// feasible frequency with slowdown ≤ τ. Searching all-core combinations
/// therefore reduces *exactly* to searching the discrete set of achievable
/// τ values, which is what this does.
pub(crate) fn cpu_manager_plan(
    model: &Model<'_>,
    mem: usize,
    allowed: impl Fn(usize) -> f64,
) -> (Plan, f64) {
    let n = model.n_cores();
    let cmax = model.core_grid_len() - 1;
    let ok = |i: usize, fc: usize| model.tpi(i, fc, mem) <= allowed(i);

    // Candidate caps: every achievable per-core slowdown at this memory
    // frequency (deduplicated); τ = 1.0 (all max) is always included.
    let mut taus: Vec<f64> = vec![1.0];
    for i in 0..n {
        for fc in 0..=cmax {
            if ok(i, fc) {
                taus.push(model.slowdown(i, fc, mem));
            }
        }
    }
    taus.sort_by(|a, b| a.partial_cmp(b).expect("slowdowns are never NaN"));
    taus.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    let mut best: Option<(Plan, f64)> = None;
    for &tau in &taus {
        // Lowest frequency whose slowdown fits under both τ and the bound;
        // tpi is monotone in frequency, so scan upward.
        let cores: Option<Vec<usize>> = (0..n)
            .map(|i| (0..=cmax).find(|&fc| ok(i, fc) && model.slowdown(i, fc, mem) <= tau + 1e-12))
            .collect();
        let Some(cores) = cores else {
            continue;
        };
        let plan = Plan { cores, mem };
        let ser = model.ser(&plan);
        if best.as_ref().is_none_or(|(_, s)| ser < *s) {
            best = Some((plan, ser));
        }
    }
    best.unwrap_or_else(|| {
        let plan = Plan {
            cores: vec![cmax; n],
            mem,
        };
        let ser = model.ser(&plan);
        (plan, ser)
    })
}

/// The memory power manager: walks the bus frequency down one step at a
/// time with cores frozen at `cores`, while every core stays within
/// `allowed(i)`, and picks the minimum-SER stop.
pub(crate) fn mem_manager_plan(
    model: &Model<'_>,
    cores: &[usize],
    allowed: impl Fn(usize) -> f64,
) -> usize {
    let n = model.n_cores();
    let mmax = model.mem_grid_len() - 1;
    let ser_at = |mem: usize| {
        model.ser(&Plan {
            cores: cores.to_vec(),
            mem,
        })
    };
    let mut best_mem = mmax;
    let mut best_ser = ser_at(mmax);
    let mut mem = mmax;
    while mem > 0 && (0..n).all(|i| model.tpi(i, cores[i], mem - 1) <= allowed(i)) {
        mem -= 1;
        let ser = ser_at(mem);
        if ser < best_ser {
            best_ser = ser;
            best_mem = mem;
        }
    }
    best_mem
}
