//! One reproduction function per table/figure of the paper (see the
//! per-experiment index in DESIGN.md). Each prints the same rows/series the
//! paper reports, alongside the paper's own numbers where the text states
//! them, and writes a TSV.

use crate::{
    class_mixes, degradation_stats, pct, scenarios, Ctx, Table, ALL_MIXES, CLASS_REPS, MEM_MIXES,
    MID_MIXES,
};
use coscale::{
    CoScalePolicy, EpochProfile, Model, Plan, Policy, PolicyKind, Runner, SemiCoordinatedPolicy,
    SimConfig,
};
use cpusim::PipelineMode;
use memsim::MemConfig;
use simkernel::Ps;
use std::time::{Duration, Instant};

/// The worst per-application degradation that Figures 6 and 9 report as
/// meeting the 10% performance bound.
const BOUND_MET: f64 = 0.115;

/// Paper Table 1 MPKI/WPKI per mix, for side-by-side comparison.
const TABLE1_PAPER: [(&str, f64, f64); 16] = [
    ("ILP1", 0.37, 0.06),
    ("ILP2", 0.16, 0.03),
    ("ILP3", 0.27, 0.07),
    ("ILP4", 0.25, 0.04),
    ("MID1", 1.76, 0.74),
    ("MID2", 2.61, 0.89),
    ("MID3", 1.00, 0.60),
    ("MID4", 2.13, 0.90),
    ("MEM1", 18.2, 7.92),
    ("MEM2", 7.75, 2.53),
    ("MEM3", 7.93, 2.55),
    ("MEM4", 15.07, 7.31),
    ("MIX1", 2.93, 2.56),
    ("MIX2", 2.34, 0.39),
    ("MIX3", 2.55, 0.80),
    ("MIX4", 2.35, 1.38),
];

/// Table 1: workload composition and measured MPKI/WPKI of the synthetic
/// mixes, vs the paper's trace measurements.
pub fn table1(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Table 1 — workload mixes: measured vs paper MPKI/WPKI (baseline, max frequencies)",
        &[
            "mix",
            "class",
            "apps",
            "MPKI",
            "WPKI",
            "paper MPKI",
            "paper WPKI",
        ],
    );
    let mixes = ctx.mixes(&ALL_MIXES, &CLASS_REPS);
    for &(name, p_mpki, p_wpki) in &TABLE1_PAPER {
        if !mixes.contains(&name) {
            continue;
        }
        let r = ctx.run(name, PolicyKind::StaticMax);
        let m = workloads::mix(name).expect("known mix");
        t.row(vec![
            name.into(),
            m.class.to_string(),
            m.apps.join(" "),
            format!("{:.2}", r.mpki),
            format!("{:.2}", r.wpki),
            format!("{p_mpki:.2}"),
            format!("{p_wpki:.2}"),
        ]);
    }
    ctx.emit(&t, "table1.tsv");
}

/// Figure 5: CoScale energy savings (full system, memory, CPU) per mix.
pub fn fig5(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Figure 5 — CoScale energy savings vs no-DVFS baseline (γ = 10%)",
        &["mix", "full-system", "memory", "CPU"],
    );
    let mut sums = [0.0f64; 3];
    let mixes = ctx.mixes(&ALL_MIXES, &CLASS_REPS);
    for name in &mixes {
        let base = ctx.run(name, PolicyKind::StaticMax);
        let run = ctx.run(name, PolicyKind::CoScale);
        let full = run.energy_savings_vs(&base);
        let mem = 1.0 - run.mem_energy_j / base.mem_energy_j;
        let cpu = 1.0 - run.cpu_energy_j / base.cpu_energy_j;
        sums[0] += full;
        sums[1] += mem;
        sums[2] += cpu;
        t.row(vec![name.to_string(), pct(full), pct(mem), pct(cpu)]);
    }
    let n = mixes.len() as f64;
    t.row(vec![
        "AVG".into(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
    ]);
    t.row(vec![
        "paper AVG".into(),
        "16.0%".into(),
        "(−0.5%..57%)".into(),
        "(16%..40%)".into(),
    ]);
    ctx.emit(&t, "fig5.tsv");
}

/// Figure 6: CoScale per-mix performance degradation (average and worst
/// application) against the 10% bound.
pub fn fig6(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Figure 6 — CoScale performance degradation (bound = 10%)",
        &["mix", "avg", "worst", "bound met"],
    );
    let mut avg_acc = 0.0;
    let mixes = ctx.mixes(&ALL_MIXES, &CLASS_REPS);
    for name in &mixes {
        let base = ctx.run(name, PolicyKind::StaticMax);
        let run = ctx.run(name, PolicyKind::CoScale);
        let (avg, worst) = degradation_stats(&run, &base);
        avg_acc += avg;
        t.row(vec![
            name.to_string(),
            pct(avg),
            pct(worst),
            if worst <= BOUND_MET { "yes" } else { "NO" }.into(),
        ]);
    }
    t.row(vec![
        "AVG".into(),
        pct(avg_acc / mixes.len() as f64),
        String::new(),
        String::new(),
    ]);
    t.row(vec![
        "paper AVG".into(),
        "9.6%".into(),
        "< 10%".into(),
        "yes".into(),
    ]);
    ctx.emit(&t, "fig6.tsv");
}

/// Figure 7: per-epoch timeline of memory frequency and milc's core
/// frequency in MIX2, under CoScale / Uncoordinated / Semi-coordinated.
pub fn fig7(ctx: &mut Ctx) {
    let m = workloads::mix("MIX2").expect("known mix");
    let milc_cores = m.cores_of("milc");
    let mut t = Table::new(
        "Figure 7 — MIX2 timeline: memory and milc core frequency (GHz) per epoch",
        &[
            "epoch",
            "CoScale mem",
            "CoScale core",
            "Uncoord mem",
            "Uncoord core",
            "Semi mem",
            "Semi core",
        ],
    );
    let policies = [
        PolicyKind::CoScale,
        PolicyKind::Uncoordinated,
        PolicyKind::SemiCoordinated,
    ];
    let cfg = ctx.standard_config("MIX2");
    let runs: Vec<_> = policies.iter().map(|&p| ctx.run("MIX2", p)).collect();
    let epochs = runs.iter().map(|r| r.records.len()).max().unwrap_or(0);
    for e in 0..epochs {
        let mut row = vec![format!("{e}")];
        for r in &runs {
            match r.records.get(e) {
                Some(rec) => {
                    let mem_ghz = cfg.mem.freq_grid[rec.plan.mem].as_ghz();
                    let core_ghz: f64 = milc_cores
                        .iter()
                        .filter(|&&c| c < rec.plan.cores.len())
                        .map(|&c| cfg.core_freqs[rec.plan.cores[c]].as_ghz())
                        .sum::<f64>()
                        / milc_cores.len() as f64;
                    row.push(format!("{mem_ghz:.2}"));
                    row.push(format!("{core_ghz:.2}"));
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
        t.row(row);
    }
    ctx.emit(&t, "fig7.tsv");
}

/// Figures 8 and 9: average energy savings and performance degradation
/// across all seven policies. The paper's headline comparisons are
/// asserted before the tables are written: only Uncoordinated breaks the
/// bound, CoScale saves more than either single-knob policy, and CoScale
/// comes close to the Offline oracle.
pub fn fig8_9(ctx: &mut Ctx) {
    let policies = [
        PolicyKind::MemScale,
        PolicyKind::CpuOnly,
        PolicyKind::Uncoordinated,
        PolicyKind::SemiCoordinated,
        PolicyKind::CoScale,
        PolicyKind::Offline,
    ];
    let mut t8 = Table::new(
        "Figure 8 — average energy savings by policy",
        &["policy", "full-system", "memory", "CPU"],
    );
    let mut t9 = Table::new(
        "Figure 9 — performance degradation by policy (bound = 10%)",
        &["policy", "avg", "worst", "bound met"],
    );
    let mixes = ctx.mixes(&ALL_MIXES, &CLASS_REPS);
    // Per policy: mean full-system savings and worst degradation.
    let mut headline = Vec::with_capacity(policies.len());
    for &p in &policies {
        let mut s = [0.0f64; 3];
        let mut avg_deg = 0.0;
        let mut worst_deg = f64::NEG_INFINITY;
        for name in &mixes {
            let base = ctx.run(name, PolicyKind::StaticMax);
            let run = ctx.run(name, p);
            s[0] += run.energy_savings_vs(&base);
            s[1] += 1.0 - run.mem_energy_j / base.mem_energy_j;
            s[2] += 1.0 - run.cpu_energy_j / base.cpu_energy_j;
            let (avg, worst) = degradation_stats(&run, &base);
            avg_deg += avg;
            worst_deg = worst_deg.max(worst);
        }
        let n = mixes.len() as f64;
        t8.row(vec![
            p.to_string(),
            pct(s[0] / n),
            pct(s[1] / n),
            pct(s[2] / n),
        ]);
        t9.row(vec![
            p.to_string(),
            pct(avg_deg / n),
            pct(worst_deg),
            if worst_deg <= BOUND_MET { "yes" } else { "NO" }.into(),
        ]);
        headline.push((p, s[0] / n, worst_deg));
    }
    let of = |kind: PolicyKind| {
        let &(_, savings, worst) = headline
            .iter()
            .find(|(p, ..)| *p == kind)
            .expect("every policy ran");
        (savings, worst)
    };
    let (coscale, coscale_worst) = of(PolicyKind::CoScale);
    let (offline, _) = of(PolicyKind::Offline);
    let (_, uncoordinated_worst) = of(PolicyKind::Uncoordinated);
    let (_, semi_worst) = of(PolicyKind::SemiCoordinated);
    assert!(
        uncoordinated_worst > BOUND_MET,
        "Uncoordinated must break the bound: worst {}",
        pct(uncoordinated_worst)
    );
    for (p, worst) in [
        (PolicyKind::CoScale, coscale_worst),
        (PolicyKind::SemiCoordinated, semi_worst),
    ] {
        assert!(
            worst <= BOUND_MET,
            "{p} must meet the bound: worst {}",
            pct(worst)
        );
    }
    for single in [PolicyKind::CpuOnly, PolicyKind::MemScale] {
        let (savings, _) = of(single);
        assert!(
            coscale > savings,
            "CoScale must save more than {single}: {} vs {}",
            pct(coscale),
            pct(savings)
        );
    }
    // Offline plans every epoch from that epoch's exact profile, CoScale
    // from a 300 µs profiling window at its start. What the window misses
    // weighs more on `--quick`'s four mixes at 6 M instructions per
    // application than on all sixteen at 25 M: CoScale measured 1.1 pp
    // below Offline there and 0.3 pp at full scale. A 2 pp margin leaves
    // room for that and still fails a policy that trails as far as
    // Semi-coordinated does (3.3 pp below Offline there, 3.5 pp at full
    // scale).
    const OFFLINE_MARGIN: f64 = 0.02;
    assert!(
        coscale >= offline - OFFLINE_MARGIN,
        "CoScale must come within {} of Offline: {} vs {}",
        pct(OFFLINE_MARGIN),
        pct(coscale),
        pct(offline)
    );
    t8.row(vec![
        "paper notes".into(),
        "CoScale 16%; MemScale/CPUOnly ≤ 10%; Semi 2.6% below CoScale; Offline ≈ CoScale".into(),
        "MemScale 30%".into(),
        "CPUOnly 26%".into(),
    ]);
    t9.row(vec![
        "paper notes".into(),
        "CoScale 9.6%".into(),
        "Uncoordinated up to 19%".into(),
        "all but Uncoordinated".into(),
    ]);
    ctx.emit(&t8, "fig8.tsv");
    ctx.emit(&t9, "fig9.tsv");
}

/// The sensitivity studies' one sweep point: CoScale over `mixes`, each
/// mix's standard configuration changed by `knob`, against the no-DVFS
/// baseline. With `knob_baseline` the baseline runs under the knob too;
/// without it, CoScale is compared with the standard baseline. Returns the
/// mean full-system savings and the worst per-application degradation.
fn sweep(
    ctx: &mut Ctx,
    mixes: &[&str],
    knob_baseline: bool,
    knob: impl Fn(&mut SimConfig),
) -> (f64, f64) {
    let mut savings = 0.0;
    let mut worst = f64::NEG_INFINITY;
    for name in mixes {
        let mut cfg = ctx.standard_config(name);
        knob(&mut cfg);
        let base = if knob_baseline {
            ctx.run_config(cfg.clone(), PolicyKind::StaticMax)
        } else {
            ctx.run(name, PolicyKind::StaticMax)
        };
        let run = ctx.run_config(cfg, PolicyKind::CoScale);
        savings += run.energy_savings_vs(&base);
        worst = worst.max(degradation_stats(&run, &base).1);
    }
    (savings / mixes.len() as f64, worst)
}

/// Asserts that the savings along a sweep strictly rise (`rises`) or
/// strictly fall.
fn assert_trend(what: &str, savings: &[f64], rises: bool) {
    let holds = savings
        .windows(2)
        .all(|w| if rises { w[1] > w[0] } else { w[1] < w[0] });
    let seen: Vec<String> = savings.iter().map(|&s| pct(s)).collect();
    assert!(
        holds,
        "{what}: savings must {} monotonically, measured {}",
        if rises { "rise" } else { "fall" },
        seen.join(" → ")
    );
}

/// Figure 10: energy savings under performance bounds of 1/5/10/15/20%.
/// Asserted before the table is written: savings rise with the bound.
pub fn fig10(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Figure 10 — impact of the performance bound (MID mixes)",
        &[
            "bound",
            "energy savings",
            "worst degradation",
            "paper savings",
        ],
    );
    let mids = ctx.mixes(&MID_MIXES, &["MID1"]);
    let mut savings = Vec::new();
    for (gamma, paper) in [
        (0.01, "4%"),
        (0.05, "9%"),
        (0.10, "16% (all-mix avg)"),
        (0.15, ">16%"),
        (0.20, ">16%"),
    ] {
        let (s, worst) = sweep(ctx, &mids, false, |cfg| cfg.gamma = gamma);
        t.row(vec![pct(gamma), pct(s), pct(worst), paper.into()]);
        savings.push(s);
    }
    assert_trend("Figure 10, bound 1% → 20%", &savings, true);
    ctx.emit(&t, "fig10.tsv");
}

/// Figure 11: sensitivity to rest-of-system power (5–20% of baseline).
/// Asserted before the table is written: savings fall as the share grows.
pub fn fig11(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Figure 11 — impact of rest-of-system power share (MID mixes)",
        &["rest share", "energy savings", "paper"],
    );
    let mids = ctx.mixes(&MID_MIXES, &["MID1"]);
    let mut savings = Vec::new();
    for (frac, paper) in [
        (0.05, "~17%"),
        (0.10, "16% (default)"),
        (0.15, "~15%"),
        (0.20, "~14%"),
    ] {
        let (s, _) = sweep(ctx, &mids, true, |cfg| {
            cfg.power = cfg.power.clone().with_rest_fraction(frac);
        });
        t.row(vec![pct(frac), pct(s), paper.into()]);
        savings.push(s);
    }
    assert_trend("Figure 11, rest share 5% → 20%", &savings, false);
    ctx.emit(&t, "fig11.tsv");
}

/// Figures 12–13: sensitivity to the CPU:memory power ratio, on MID and
/// MEM mixes. 2:1 is the default calibration; 1:1 and 1:2 scale memory
/// power by 2x and 4x. Asserted before each table is written: the MID
/// savings rise with memory power and the MEM savings fall.
pub fn fig12_13(ctx: &mut Ctx) {
    for (fig, mixes, file) in [(12, MID_MIXES, "fig12.tsv"), (13, MEM_MIXES, "fig13.tsv")] {
        let subset = ctx.mixes(&mixes, &mixes[..1]);
        let mut t = Table::new(
            &format!(
                "Figure {fig} — impact of CPU:memory power ratio ({} mixes)",
                &subset[0][..3]
            ),
            &["ratio", "energy savings", "paper trend"],
        );
        let (trend, rises) = if fig == 12 {
            (["baseline", "higher", "highest"], true)
        } else {
            (["baseline", "lower", "lowest"], false)
        };
        let mut savings = Vec::new();
        for ((label, scale), paper) in [("2:1", 1.0), ("1:1", 2.0), ("1:2", 4.0)]
            .into_iter()
            .zip(trend)
        {
            let (s, _) = sweep(ctx, &subset, true, |cfg| {
                cfg.power = cfg.power.clone().with_memory_power_scale(scale);
            });
            t.row(vec![label.into(), pct(s), paper.into()]);
            savings.push(s);
        }
        assert_trend(&format!("Figure {fig}, ratio 2:1 → 1:2"), &savings, rises);
        ctx.emit(&t, file);
    }
}

/// Figure 14: half vs full CPU voltage range. Asserted before the table is
/// written: the half range saves less.
pub fn fig14(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Figure 14 — impact of the CPU voltage range (MID mixes)",
        &["range", "energy savings", "paper"],
    );
    let mids = ctx.mixes(&MID_MIXES, &["MID1"]);
    let mut savings = Vec::new();
    for (label, vmin, paper) in [
        ("full 0.65–1.2V", 0.65, "16% (all-mix avg)"),
        ("half 0.95–1.2V", 0.95, "11%"),
    ] {
        let (s, _) = sweep(ctx, &mids, true, |cfg| {
            cfg.power = cfg.power.clone().with_core_vmin(vmin);
        });
        t.row(vec![label.into(), pct(s), paper.into()]);
        savings.push(s);
    }
    assert_trend("Figure 14, full → half voltage range", &savings, false);
    ctx.emit(&t, "fig14.tsv");
}

/// Figure 15: 4/7/10 available frequency steps (CPU and memory grids).
///
/// Every row, the 10-step one included, builds its memory grid with
/// [`MemConfig::freq_grid_with_steps`] (200, 267, … 800 MHz), not the
/// default grid (200, 266, … 728, 800 MHz), so the 10-step row, which the
/// paper calls the default, is not the standard configuration.
pub fn fig15(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Figure 15 — impact of the number of frequency steps (MID mixes)",
        &["steps", "energy savings", "worst degradation", "paper"],
    );
    let mids = ctx.mixes(&MID_MIXES, &["MID1"]);
    for (steps, paper) in [
        (4usize, "slightly less"),
        (7, "slightly less"),
        (10, "default"),
    ] {
        let (s, worst) = sweep(ctx, &mids, true, |cfg| {
            cfg.core_freqs = SimConfig::core_grid_with_steps(steps);
            cfg.mem.freq_grid = MemConfig::freq_grid_with_steps(steps);
        });
        t.row(vec![format!("{steps}"), pct(s), pct(worst), paper.into()]);
    }
    ctx.emit(&t, "fig15.tsv");
}

/// Figure 16: prefetching — normalized energy per instruction of Base,
/// Base+Pref, Base+CoScale and Base+Pref+CoScale per class, plus the
/// prefetcher statistics the paper quotes.
pub fn fig16(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Figure 16 — prefetching: energy per instruction normalized to Base",
        &[
            "class",
            "Base",
            "Base+Pref",
            "Base+CoScale",
            "Base+Pref+CoScale",
            "pref accuracy",
            "pref speedup",
        ],
    );
    for class in ["MEM", "MID", "ILP", "MIX"] {
        let all = class_mixes(class);
        let mixes = ctx.mixes(&all, &all[..1]);
        let mut epi = [0.0f64; 4];
        let mut acc = 0.0;
        let mut speedup = 0.0;
        for name in &mixes {
            let base = ctx.run(name, PolicyKind::StaticMax);
            let co = ctx.run(name, PolicyKind::CoScale);
            let mut pcfg = ctx.standard_config(name);
            pcfg.core.prefetch = true;
            let pref = ctx.run_config(pcfg.clone(), PolicyKind::StaticMax);
            let pref_co = ctx.run_config(pcfg, PolicyKind::CoScale);
            let e0 = base.total_energy_j();
            epi[0] += 1.0;
            epi[1] += pref.total_energy_j() / e0;
            epi[2] += co.total_energy_j() / e0;
            epi[3] += pref_co.total_energy_j() / e0;
            acc += pref.prefetch_accuracy;
            speedup += base.makespan.as_secs_f64() / pref.makespan.as_secs_f64() - 1.0;
        }
        let n = mixes.len() as f64;
        t.row(vec![
            class.into(),
            format!("{:.3}", epi[0] / n),
            format!("{:.3}", epi[1] / n),
            format!("{:.3}", epi[2] / n),
            format!("{:.3}", epi[3] / n),
            pct(acc / n),
            pct(speedup / n),
        ]);
    }
    t.row(vec![
        "paper".into(),
        "1.0".into(),
        "≈1.0 (MEM 0.93)".into(),
        "MEM 0.88".into(),
        "MEM 0.83".into(),
        "52–98%".into(),
        "MEM ~20%, ILP ~1%".into(),
    ]);
    ctx.emit(&t, "fig16.tsv");
}

/// Figures 17–18: in-order vs out-of-order (MLP window) — normalized CPI
/// and energy per instruction, with and without CoScale.
pub fn fig17_18(ctx: &mut Ctx) {
    let mut t17 = Table::new(
        "Figure 17 — average CPI normalized to in-order baseline",
        &[
            "class",
            "In-order",
            "OoO",
            "In-order+CoScale",
            "OoO+CoScale",
        ],
    );
    let mut t18 = Table::new(
        "Figure 18 — energy per instruction normalized to in-order baseline",
        &[
            "class",
            "In-order",
            "OoO",
            "In-order+CoScale",
            "OoO+CoScale",
        ],
    );
    for class in ["MEM", "MID", "ILP", "MIX"] {
        let all = class_mixes(class);
        let mixes = ctx.mixes(&all, &all[..1]);
        let mut cpi = [0.0f64; 4];
        let mut epi = [0.0f64; 4];
        for name in &mixes {
            let base = ctx.run(name, PolicyKind::StaticMax);
            let co = ctx.run(name, PolicyKind::CoScale);
            let mut ocfg = ctx.standard_config(name);
            ocfg.core.pipeline = PipelineMode::MlpWindow(128);
            let ooo = ctx.run_config(ocfg.clone(), PolicyKind::StaticMax);
            let ooo_co = ctx.run_config(ocfg, PolicyKind::CoScale);
            let t0 = base.makespan.as_secs_f64();
            let e0 = base.total_energy_j();
            cpi[0] += 1.0;
            cpi[1] += ooo.makespan.as_secs_f64() / t0;
            cpi[2] += co.makespan.as_secs_f64() / t0;
            cpi[3] += ooo_co.makespan.as_secs_f64() / t0;
            epi[0] += 1.0;
            epi[1] += ooo.total_energy_j() / e0;
            epi[2] += co.total_energy_j() / e0;
            epi[3] += ooo_co.total_energy_j() / e0;
        }
        let n = mixes.len() as f64;
        t17.row(vec![
            class.into(),
            format!("{:.3}", cpi[0] / n),
            format!("{:.3}", cpi[1] / n),
            format!("{:.3}", cpi[2] / n),
            format!("{:.3}", cpi[3] / n),
        ]);
        t18.row(vec![
            class.into(),
            format!("{:.3}", epi[0] / n),
            format!("{:.3}", epi[1] / n),
            format!("{:.3}", epi[2] / n),
            format!("{:.3}", epi[3] / n),
        ]);
    }
    t17.row(vec![
        "paper".into(),
        "1.0".into(),
        "MEM much lower, ILP ≈1.0".into(),
        "≤1.1".into(),
        "within 10% of OoO".into(),
    ]);
    t18.row(vec![
        "paper".into(),
        "1.0".into(),
        "≤1.0".into(),
        "CoScale saves similar %".into(),
        "CoScale saves similar %".into(),
    ]);
    ctx.emit(&t17, "fig17.tsv");
    ctx.emit(&t18, "fig18.tsv");
}

/// Builds a deterministic synthetic profile with `n` cores for search-cost
/// measurement (§3.1 claims < 5 µs at 16 cores, projections of 83/360 µs at
/// 64/128 cores).
pub fn synthetic_profile(n: usize) -> EpochProfile {
    let mut profile = EpochProfile {
        window: Ps::from_us(300),
        mem_freq_idx: 9,
        ..EpochProfile::default()
    };
    for i in 0..n {
        let f = i as f64 / n.max(1) as f64;
        profile.cores.push(coscale::CoreProfile {
            cpu_cycles_pi: 1.0 + 0.5 * f,
            l2_s_pi: 40e-12 + 60e-12 * f,
            mem_s_pi: 100e-12 + 1200e-12 * f,
            instrs: 300_000 + (i as u64 * 7919) % 100_000,
            cac_pi: [0.4, 0.1, 0.15, 0.35],
        });
        profile.core_freq_idx.push(9);
    }
    profile.mem = coscale::MemProfile {
        bank_wait_s: 15e-9,
        bus_wait_s: 4e-9,
        reads: 30_000 * n as u64,
        page_opens: 35_000 * n as u64,
        refreshes: 38,
        rank_active_s: 1e-4,
        l2_accesses: 100_000 * n as u64,
    };
    profile
}

/// §3.1 search-cost measurement: wall-clock time of one CoScale decision at
/// 16, 64 and 128 cores, as the median and quartiles of 21 batch means.
/// The absolute times move by up to 2× between runs of one binary on a
/// shared host, so each batch times the three core counts back to back and
/// the `vs 16 cores` column reports the median over batches of each
/// batch's ratio to its own 16-core mean: the scaling the paper projects,
/// measured so that a slow phase of the host cancels out.
pub fn search_cost(ctx: &mut Ctx) {
    const BATCHES: usize = 21;
    const CORES: [usize; 3] = [16, 64, 128];
    let mut t = Table::new(
        "Search cost — one CoScale decision, median and quartiles of 21 batch means, each batch timing every core count back to back (paper: <5 µs @16 cores on a 2.4 GHz Xeon; projected 83/360 µs @64/128)",
        &[
            "cores",
            "median decision time",
            "q1",
            "q3",
            "vs 16 cores",
            "batches",
            "decisions per batch",
        ],
    );
    let core_grid = SimConfig::core_grid_with_steps(10);
    let mem_cfg = MemConfig::default();
    let power = powermodel::PowerConfig::default();
    let profiles: Vec<_> = CORES.iter().map(|&n| synthetic_profile(n)).collect();
    let mut runs: Vec<_> = CORES
        .iter()
        .zip(&profiles)
        .map(|(&n, profile)| {
            let model = Model::new(
                profile,
                &core_grid,
                &mem_cfg.freq_grid,
                &power,
                &vec![0.0; n],
                Ps::from_ms(5),
                0.10,
            );
            let iters: u32 = if n <= 16 { 200 } else { 50 };
            (model, CoScalePolicy::default(), Plan::max(n, 10, 10), iters)
        })
        .collect();
    for (model, policy, current, _) in &mut runs {
        let _ = policy.decide(model, current); // warm-up
    }
    let batches: Vec<Vec<Duration>> = (0..BATCHES)
        .map(|_| {
            runs.iter_mut()
                .map(|(model, policy, current, iters)| {
                    let t0 = Instant::now();
                    for _ in 0..*iters {
                        std::hint::black_box(policy.decide(model, current));
                    }
                    t0.elapsed() / *iters
                })
                .collect()
        })
        .collect();
    for (k, (&n, (_, _, _, iters))) in CORES.iter().zip(&runs).enumerate() {
        let mut means: Vec<Duration> = batches.iter().map(|b| b[k]).collect();
        means.sort_unstable();
        let mut ratios: Vec<f64> = batches
            .iter()
            .map(|b| b[k].as_secs_f64() / b[0].as_secs_f64())
            .collect();
        ratios.sort_unstable_by(f64::total_cmp);
        t.row(vec![
            format!("{n}"),
            format!("{:?}", means[BATCHES / 2]),
            format!("{:?}", means[BATCHES / 4]),
            format!("{:?}", means[3 * BATCHES / 4]),
            format!("{:.2}x", ratios[BATCHES / 2]),
            format!("{BATCHES}"),
            format!("{iters}"),
        ]);
    }
    ctx.emit(&t, "search_cost.tsv");
}

/// Ablation: CoScale with core grouping disabled (DESIGN.md; the paper
/// argues grouping is needed to avoid always preferring memory and getting
/// stuck in local minima).
pub fn ablation_grouping(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Ablation — CoScale core grouping on vs off",
        &[
            "mix",
            "savings (grouping)",
            "savings (no grouping)",
            "worst deg (no grouping)",
        ],
    );
    let mixes = ctx.mixes(&["MID1", "MID3", "ILP1", "MIX2"], &["MID1"]);
    for name in mixes {
        let base = ctx.run(name, PolicyKind::StaticMax);
        let on = ctx.run(name, PolicyKind::CoScale);
        eprintln!("  running {name} / CoScale-no-grouping ...");
        let off = Runner::new(ctx.standard_config(name), PolicyKind::CoScale)
            .with_policy(Box::new(CoScalePolicy { group_cores: false }))
            .run();
        let (_, w) = degradation_stats(&off, &base);
        t.row(vec![
            name.into(),
            pct(on.energy_savings_vs(&base)),
            pct(off.energy_savings_vs(&base)),
            pct(w),
        ]);
    }
    ctx.emit(&t, "ablation_grouping.tsv");
}

/// Ablation: Semi-coordinated with managers acting out of phase (§4.2.2:
/// "0.3% lower savings with the same performance").
pub fn ablation_phase(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Ablation — Semi-coordinated in-phase vs out-of-phase managers",
        &[
            "mix",
            "savings (in phase)",
            "savings (out of phase)",
            "worst deg (out of phase)",
        ],
    );
    let mixes = ctx.mixes(&MID_MIXES, &["MID1"]);
    for name in mixes {
        let base = ctx.run(name, PolicyKind::StaticMax);
        let inphase = ctx.run(name, PolicyKind::SemiCoordinated);
        eprintln!("  running {name} / Semi-out-of-phase ...");
        let out = Runner::new(ctx.standard_config(name), PolicyKind::SemiCoordinated)
            .with_policy(Box::new(SemiCoordinatedPolicy::out_of_phase()))
            .run();
        let (_, w) = degradation_stats(&out, &base);
        t.row(vec![
            name.into(),
            pct(inphase.energy_savings_vs(&base)),
            pct(out.energy_savings_vs(&base)),
            pct(w),
        ]);
    }
    ctx.emit(&t, "ablation_phase.tsv");
}

/// Ablation: row-buffer management and scheduling (§4.1: "closed-page row
/// buffer management ... outperforms open-page policies for multi-core
/// CPUs"). Runs the baseline system under four memory configurations.
pub fn ablation_page_policy(ctx: &mut Ctx) {
    use memsim::{AddrMap, PagePolicy, SchedPolicy};
    let mut t = Table::new(
        "Ablation — page policy / scheduling / address map (baseline, no DVFS)",
        &[
            "mix",
            "config",
            "makespan (ms)",
            "energy (J)",
            "row hit rate",
            "avg read lat (ns)",
        ],
    );
    let mixes = ctx.mixes(&["MEM1", "MEM4", "MID1"], &["MEM1"]);
    let variants: [(&str, PagePolicy, SchedPolicy, AddrMap); 4] = [
        (
            "closed+interleave (paper)",
            PagePolicy::Closed,
            SchedPolicy::Fcfs,
            AddrMap::ChannelInterleaved,
        ),
        (
            "open+interleave",
            PagePolicy::Open,
            SchedPolicy::Fcfs,
            AddrMap::ChannelInterleaved,
        ),
        (
            "open+rowmap",
            PagePolicy::Open,
            SchedPolicy::Fcfs,
            AddrMap::RowInterleaved,
        ),
        (
            "open+rowmap+frfcfs",
            PagePolicy::Open,
            SchedPolicy::FrFcfs,
            AddrMap::RowInterleaved,
        ),
    ];
    for name in mixes {
        for (label, page, sched, map) in variants {
            let mut cfg = ctx.standard_config(name);
            cfg.mem.page_policy = page;
            cfg.mem.sched = sched;
            cfg.mem.addr_map = map;
            let r = ctx.run_config(cfg, PolicyKind::StaticMax);
            t.row(vec![
                name.into(),
                label.into(),
                format!("{:.2}", r.makespan.as_secs_f64() * 1e3),
                format!("{:.2}", r.total_energy_j()),
                pct(r.row_hit_rate),
                format!("{:.1}", r.avg_read_latency_ns),
            ]);
        }
    }
    ctx.emit(&t, "ablation_page_policy.tsv");
}

/// Ablation: idle low-power memory states vs memory DVFS (§2.2: "active
/// low-power modes are more successful at garnering energy savings for
/// server workloads" than idle states). Compares an aggressive self-refresh
/// idle manager against MemScale DVFS and CoScale.
pub fn ablation_idle_states(ctx: &mut Ctx) {
    use memsim::{IdleMemPolicy, IdleMode};
    let mut t = Table::new(
        "Ablation — idle low-power states vs active low-power modes (DVFS)",
        &[
            "mix",
            "scheme",
            "energy savings",
            "worst degradation",
            "sleep frac",
        ],
    );
    let mixes = ctx.mixes(&["ILP1", "MID1", "MEM1"], &["ILP1"]);
    for name in mixes {
        let base = ctx.run(name, PolicyKind::StaticMax);
        // Idle-state managers (no DVFS): a fast-exit powerdown with a short
        // break-even threshold, and a deep self-refresh entered only after
        // long idleness (its DLL-relock exit is ~640 ns).
        let mut pd_cfg = ctx.standard_config(name);
        pd_cfg.mem.idle_policy = Some(IdleMemPolicy {
            threshold: Ps::from_us(2),
            mode: IdleMode::Powerdown,
        });
        let pd = ctx.run_config(pd_cfg, PolicyKind::StaticMax);
        let mut sr_cfg = ctx.standard_config(name);
        sr_cfg.mem.idle_policy = Some(IdleMemPolicy {
            threshold: Ps::from_us(50),
            mode: IdleMode::SelfRefresh,
        });
        let sr = ctx.run_config(sr_cfg, PolicyKind::StaticMax);
        let ms = ctx.run(name, PolicyKind::MemScale);
        let co = ctx.run(name, PolicyKind::CoScale);
        for (label, run) in [
            ("idle powerdown (2µs)", pd),
            ("idle self-refresh (50µs)", sr),
            ("MemScale DVFS", ms),
            ("CoScale", co),
        ] {
            let (_, worst) = degradation_stats(&run, &base);
            let sleep = if label.starts_with("idle") {
                pct(run.mem_sleep_fraction)
            } else {
                "-".into()
            };
            t.row(vec![
                name.into(),
                label.into(),
                pct(run.energy_savings_vs(&base)),
                pct(worst),
                sleep,
            ]);
        }
    }
    ctx.emit(&t, "ablation_idle_states.tsv");
}

/// Ablation: voltage-domain granularity (§3.4: "each voltage domain may
/// currently contain several cores ... research has shown this is likely to
/// change"). Quantifies what per-core domains buy CoScale. Asserted before
/// the table is written: per-core domains save the most.
pub fn ablation_voltage_domains(ctx: &mut Ctx) {
    let mut t = Table::new(
        "Ablation — cores per voltage domain (CoScale, MID mixes)",
        &["domain size", "energy savings", "worst degradation"],
    );
    let mixes = ctx.mixes(&["MID1", "MID2"], &["MID1"]);
    let mut savings = Vec::new();
    for ds in [1usize, 4, 16] {
        let (s, worst) = sweep(ctx, &mixes, false, |cfg| cfg.voltage_domain_cores = ds);
        t.row(vec![format!("{ds}"), pct(s), pct(worst)]);
        savings.push(s);
    }
    assert!(
        savings[1..].iter().all(|&s| s < savings[0]),
        "per-core voltage domains must save the most: {} vs {} and {} for domains of 4 and 16",
        pct(savings[0]),
        pct(savings[1]),
        pct(savings[2])
    );
    ctx.emit(&t, "ablation_voltage_domains.tsv");
}

/// Cluster-level power capping (the paper's §2.3 extension lifted to a
/// rack, after FastCap/PowerTracer): a heterogeneous fleet under one
/// global budget, comparing the three cap-splitting disciplines at the
/// same budget. Asserted before the table is written: demand-proportional
/// and FastCap each beat uniform on aggregate throughput and makespan.
pub fn cluster_capping(ctx: &mut Ctx) {
    use cluster::{run_cluster, CapSplit};
    let runs = [
        CapSplit::Uniform,
        CapSplit::DemandProportional,
        CapSplit::FastCap,
    ]
    .map(|split| scenarios::cluster_capping(split, ctx.opts.quick));
    let (n, global_cap_w) = (runs[0].servers.len(), runs[0].global_cap_w);
    let mut t = Table::new(
        &format!("Cluster capping — {n} servers, global budget {global_cap_w} W"),
        &[
            "split",
            "energy (J)",
            "makespan (ms)",
            "aggregate (GIPS)",
            "cap fairness",
            "violations",
            "rounds",
        ],
    );
    let mut outcomes = Vec::new();
    for cfg in runs {
        let split = cfg.split;
        eprintln!("  running cluster [{split}] ...");
        let r = run_cluster(cfg);
        t.row(vec![
            split.to_string(),
            format!("{:.2}", r.total_energy_j()),
            format!("{:.3}", r.makespan().as_secs_f64() * 1e3),
            format!("{:.3}", r.aggregate_throughput_ips() / 1e9),
            format!("{:.3}", r.cap_fairness()),
            format!("{}", r.total_violations()),
            format!("{}", r.rounds),
        ]);
        outcomes.push((split, r.aggregate_throughput_ips(), r.makespan()));
    }
    // The headline claim, asserted: splitting by demand finishes the
    // fleet sooner and at a higher aggregate rate than a uniform share.
    let (_, uniform_ips, uniform_makespan) = outcomes[0];
    for &(split, ips, makespan) in &outcomes[1..] {
        assert!(
            ips > uniform_ips && makespan < uniform_makespan,
            "{split} must beat uniform on throughput and makespan: \
             {ips:.3e} vs {uniform_ips:.3e} IPS, {makespan} vs {uniform_makespan}"
        );
    }
    ctx.emit(&t, "cluster_capping.tsv");
}

/// The serving fleet under tail-latency SLOs (after PowerTracer): one big
/// memory-bound server pushed near its full-speed serving capacity next to
/// three lightly loaded servers, under one global budget, comparing the
/// splitting disciplines across load levels. At load 1.0 uniform saturates
/// the big server and misses its p99 target, while the SLA-aware
/// discipline meets every target on less energy; both are asserted before
/// the table is written.
pub fn service_sla(ctx: &mut Ctx) {
    use service::{run_service, CapSplit};
    let probe = scenarios::service_sla(CapSplit::Uniform, 1.0, ctx.opts.quick);
    let mut t = Table::new(
        &format!(
            "Serving fleet under SLOs — {} servers, {} W budget, {} ms p99 target",
            probe.servers.len(),
            probe.global_cap_w,
            probe.servers[0].p99_target_s * 1e3
        ),
        &[
            "split",
            "load",
            "energy (J)",
            "fleet p99 (ms)",
            "worst p99 (ms)",
            "SLO met",
            "viol rounds",
            "rejects",
        ],
    );
    // (every target met, energy) at load 1.0, in the loop's split order.
    let mut full_load = Vec::new();
    for load in [0.75, 1.0] {
        for split in [CapSplit::Uniform, CapSplit::FastCap, CapSplit::SlaAware] {
            eprintln!("  running service [{split}, load {load}] ...");
            let r = run_service(scenarios::service_sla(split, load, ctx.opts.quick));
            let worst = r.outcomes.iter().map(|o| o.p99_s()).fold(0.0f64, f64::max);
            let met = r.outcomes.iter().filter(|o| o.meets_slo()).count();
            t.row(vec![
                split.to_string(),
                format!("{load:.2}"),
                format!("{:.2}", r.total_energy_j()),
                format!("{:.3}", r.fleet_percentile_s(0.99) * 1e3),
                format!("{:.3}", worst * 1e3),
                format!("{met}/{}", r.outcomes.len()),
                format!("{}", r.total_violation_rounds()),
                format!("{}", r.total_shed()),
            ]);
            if load == 1.0 {
                full_load.push((r.all_meet_slo(), r.total_energy_j()));
            }
        }
    }
    // The headline claim, asserted at load 1.0.
    let [(uniform_met, uniform_j), _, (sla_met, sla_j)] = full_load[..] else {
        unreachable!("three splits ran at load 1.0")
    };
    assert!(!uniform_met, "uniform must miss a p99 target at load 1.0");
    assert!(sla_met, "sla-aware must meet every p99 target at load 1.0");
    assert!(
        sla_j < uniform_j,
        "sla-aware must use less energy than uniform at load 1.0: {sla_j:.2} J vs {uniform_j:.2} J"
    );
    ctx.emit(&t, "service_sla.tsv");
}

/// Hierarchical budget trees (after "No 'Power' Struggles"): a bursty rack
/// (one 8-core memory-bound server absorbing an MMPP stream that bursts
/// near its full-speed capacity, plus a calm rack-mate) next to a quiet
/// pod of two lightly loaded servers, all under one global budget. A flat
/// uniform split starves the bursty server — its share sits far below the
/// burst rate, so its p99 blows through the target. The two-level tree
/// (uniform across the rack/pod pair, SLA-aware inside the rack, FastCap
/// inside the pod) pins each group to half the budget and lets the rack
/// internally shift watts onto the bursting server the moment its p99
/// signal trips — containing the burst without taking a single watt from
/// the quiet pod. Asserted before the table is written: flat uniform
/// misses a p99 target in the rack, while the tree meets all four on less
/// energy.
pub fn hierarchical_capping(ctx: &mut Ctx) {
    use service::{run_service, CapSplit};
    let quick = ctx.opts.quick;
    let probe = scenarios::hierarchical_capping(CapSplit::Uniform, false, quick);
    let mut t = Table::new(
        &format!(
            "Hierarchical capping — bursty rack vs quiet pod, {} W budget",
            probe.global_cap_w
        ),
        &[
            "config",
            "energy (J)",
            "bursty p99 (ms)",
            "rack SLO",
            "pod worst p99 (ms)",
            "pod SLO",
            "rejects",
        ],
    );
    // (rack targets met, every target met, energy), in config order.
    let mut verdicts = Vec::new();
    for (label, split, tree) in [
        ("flat uniform", CapSplit::Uniform, false),
        ("flat fastcap", CapSplit::FastCap, false),
        ("tree uniform[sla-aware,fastcap]", CapSplit::Uniform, true),
    ] {
        eprintln!("  running hierarchical [{label}] ...");
        let r = run_service(scenarios::hierarchical_capping(split, tree, quick));
        let p99_of = |name: &str| {
            r.outcomes
                .iter()
                .find(|o| o.name == name)
                .map(|o| o.p99_s())
                .unwrap_or(0.0)
        };
        let met = |names: &[&str]| {
            r.outcomes
                .iter()
                .filter(|o| names.contains(&o.name.as_str()) && o.meets_slo())
                .count()
        };
        let rack_met = met(&["h0", "m0"]);
        t.row(vec![
            label.to_string(),
            format!("{:.2}", r.total_energy_j()),
            format!("{:.3}", p99_of("h0") * 1e3),
            format!("{rack_met}/2"),
            format!("{:.3}", p99_of("q0").max(p99_of("q1")) * 1e3),
            format!("{}/2", met(&["q0", "q1"])),
            format!("{}", r.total_shed()),
        ]);
        verdicts.push((rack_met, r.all_meet_slo(), r.total_energy_j()));
    }
    let [(flat_rack_met, _, flat_j), _, (_, tree_met, tree_j)] = verdicts[..] else {
        unreachable!("three configs ran")
    };
    assert!(
        flat_rack_met < 2,
        "flat uniform must miss a p99 target in the bursty rack"
    );
    assert!(tree_met, "the tree must meet every p99 target");
    assert!(
        tree_j < flat_j,
        "the tree must use less energy than flat uniform: {tree_j:.2} J vs {flat_j:.2} J"
    );
    ctx.emit(&t, "hierarchical_capping.tsv");
}

/// Closed-loop clients behind a front-end load balancer (after the
/// client-server setups in interactive-service studies): a seeded
/// population of clients cycles request → response → exponential think
/// across a fleet of one big memory-bound server and three fast small
/// ones, under a global budget whose uniform split throttles the big
/// server near its power floor. Round-robin keeps handing the capped
/// server a quarter of the traffic — its backlog carries across rounds
/// and the fleet p99 blows through the target. The power-headroom
/// balancer reads the same caps the coordinator just granted and steers
/// by each server's utility under its cap, meeting the p99 target at the
/// identical budget; least-queue gets there reactively once backlog
/// appears. Asserted before the table is written: round-robin misses a
/// p99 target, while least-queue and power-headroom meet all four.
pub fn closed_loop_balancing(ctx: &mut Ctx) {
    use cluster::BalancePolicy;
    use service::run_service;
    let probe = scenarios::closed_loop_balancing(BalancePolicy::RoundRobin, ctx.opts.quick);
    let mut t = Table::new(
        &format!(
            "Closed-loop balancing — {} clients, {} W budget, 2 ms p99 target",
            probe.closed_loop.as_ref().expect("closed loop").clients,
            probe.global_cap_w
        ),
        &[
            "balancer",
            "generated",
            "completed",
            "fleet p99 (ms)",
            "big p99 (ms)",
            "big share",
            "SLO met",
            "energy (J)",
        ],
    );
    let mut all_met = Vec::new();
    for balance in [
        BalancePolicy::RoundRobin,
        BalancePolicy::LeastQueue,
        BalancePolicy::PowerHeadroom,
    ] {
        eprintln!("  running closed-loop [{balance}] ...");
        let r = run_service(scenarios::closed_loop_balancing(balance, ctx.opts.quick));
        let cl = r.closed_loop.as_ref().expect("closed-loop run");
        let big = r.outcomes.iter().find(|o| o.name == "big").expect("big");
        let met = r.outcomes.iter().filter(|o| o.meets_slo()).count();
        t.row(vec![
            balance.to_string(),
            format!("{}", cl.generated),
            format!("{}", r.total_completed()),
            format!("{:.3}", r.fleet_percentile_s(0.99) * 1e3),
            format!("{:.3}", big.p99_s() * 1e3),
            format!("{:.3}", big.arrived as f64 / cl.generated.max(1) as f64),
            format!("{met}/{}", r.outcomes.len()),
            format!("{:.2}", r.total_energy_j()),
        ]);
        all_met.push(r.all_meet_slo());
    }
    assert!(!all_met[0], "round-robin must miss a p99 target");
    assert!(
        all_met[1] && all_met[2],
        "least-queue and power-headroom must meet every p99 target"
    );
    ctx.emit(&t, "closed_loop_balancing.tsv");
}

/// The fleet loop at datacenter scale: a mostly-idle synthetic fleet (90%
/// of the servers finish their short workloads early and drop out of the
/// active list) run to completion, one row per fleet size. Every barrier
/// re-splits the budget, and the in-force caps are asserted every round
/// to stay within it.
pub fn fleet_scale(ctx: &mut Ctx) {
    use cluster::{run_cluster, synthetic_fleet, CapSplit, ClusterConfig};
    use std::time::Instant;

    let sizes: &[usize] = if ctx.opts.quick {
        &[64, 256]
    } else {
        &[256, 1024]
    };
    let idle_fraction = 0.9;
    let mut t = Table::new(
        "Fleet scale — 90% idle fleet, FastCap split (20 mW quanta)",
        &["servers", "wall (s)", "energy (J)", "rounds"],
    );
    for &n in sizes {
        let budget = 100.0 * n as f64;
        let mut c =
            ClusterConfig::new(synthetic_fleet(n, idle_fraction), budget, CapSplit::FastCap)
                .with_epochs_per_round(1)
                .with_threads(8);
        c.quantum_w = 0.02;
        eprintln!("  running fleet-scale [{n} servers] ...");
        let start = Instant::now();
        let r = run_cluster(c);
        let wall = start.elapsed().as_secs_f64();
        for (round, caps) in r.cap_timeline.iter().enumerate() {
            let total: f64 = caps.iter().sum();
            assert!(
                total <= budget + 1e-6,
                "{n} servers, round {round}: in-force caps {total:.3} W exceed the \
                 {budget} W budget"
            );
        }
        t.row(vec![
            format!("{n}"),
            format!("{wall:.2}"),
            format!("{:.2}", r.total_energy_j()),
            format!("{}", r.rounds),
        ]);
    }
    ctx.emit(&t, "fleet_scale.tsv");
}

/// The message-passing control plane under fire. Two tables:
///
/// **Loss sweep** (`control_plane_loss.tsv`) — a 4-server FastCap fleet
/// run to completion while the coordinator ↔ server RPC plane drops an
/// increasing fraction of messages (plus 5% duplication and one round of
/// one-way latency). The coordinator's lease ledger must conserve the
/// budget at every loss rate: in-force caps never sum past the budget
/// plus the floors of expired leases, no matter which grants or acks the
/// network eats. What loss *costs* is agility — missed renewals ride the
/// old lease, expired leases fall to the floor cap, and the fleet's
/// makespan degrades. The table reports that degradation next to the
/// plane's own accounting (grants applied vs sent, expirations, floor
/// rounds).
///
/// **Partition + failover** (`control_plane_failover.tsv`) — two outages
/// in sequence. First the primary coordinator is cut off: the standby
/// notices the silent heartbeats, elects itself (exactly once), and the
/// healed primary steps down on first contact with the higher term. Then
/// a rack of two servers is cut off for a **50-round partition**: the
/// rack rides the lease the new leader last granted it, falls to the
/// floor cap when it expires, must never exceed that last-granted share,
/// and rejoins cleanly — under the post-failover leader — when the
/// partition heals. (The partition model is a binary minority-side cut,
/// so the two windows are disjoint: flagging the primary and the rack
/// together would put them on the same island and let the exiled primary
/// keep granting the rack.) Every claim above is asserted, per round,
/// before the table is written.
///
/// **Lossy failover** (`control_plane_lossy_failover.tsv`) — the same
/// primary outage re-run on a hostile plane (one round of latency, one of
/// jitter, 20% loss, 5% duplication): the acked-state handoff must keep
/// the in-force caps within budget + floors through the takeover round
/// itself, the window the pre-handoff protocol used to overshoot.
/// Asserted per round before the table is written.
pub fn control_plane(ctx: &mut Ctx) {
    use cluster::{run_cluster, ClusterConfig, ClusterResult, PartitionSpec, RpcConfig};
    let floor_w = scenarios::FLOOR_CAP_W;

    // The fleet as the table titles name it, e.g. "4×MID1, 120 W FastCap".
    let fleet = |cfg: &ClusterConfig| {
        format!(
            "{}×{}, {} W {:?}",
            cfg.servers.len(),
            cfg.servers[0].config.mix.name,
            cfg.global_cap_w,
            cfg.split
        )
    };
    // The plane's one-way latency in whole rounds.
    let latency_rounds = |cfg: &ClusterConfig| {
        cfg.rpc
            .resolve(cfg.round_s())
            .expect("a valid scenario plane")
            .latency_rounds
    };

    // The largest per-round sum of in-force caps, asserted every round to
    // stay within the budget plus `floors` watts of expired-lease floors.
    let max_caps_sum = |r: &ClusterResult, budget: f64, floors: f64, label: &str| {
        let mut max_sum = 0.0_f64;
        for (round, caps) in r.cap_timeline.iter().enumerate() {
            let total: f64 = caps.iter().sum();
            max_sum = max_sum.max(total);
            assert!(
                total <= budget + floors + 1e-6,
                "{label}, round {round}: in-force caps {total:.3} W bust the \
                 budget + expired-lease floors"
            );
        }
        max_sum
    };

    // -- (a) loss sweep ----------------------------------------------------
    let losses: &[f64] = if ctx.opts.quick {
        &[0.0, 0.1, 0.3]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.4]
    };
    let runs: Vec<ClusterConfig> = losses
        .iter()
        .map(|&loss| scenarios::control_plane(scenarios::lossy_plane(loss), 20))
        .collect();
    let probe = &runs[0];
    let mut t = Table::new(
        &format!(
            "Control plane — budget conservation and makespan degradation vs RPC loss \
             ({}, {}-round latency, {:.0}% duplication, {}-round leases, {} W floor)",
            fleet(probe),
            latency_rounds(probe),
            probe.rpc.duplicate * 100.0,
            probe.rpc.lease_rounds,
            probe.rpc.floor_cap_w
        ),
        &[
            "loss",
            "rounds",
            "makespan (ms)",
            "degradation",
            "grants applied/sent",
            "expired leases",
            "floor rounds",
            "max Σcaps (W)",
            "energy (J)",
        ],
    );
    let mut base_makespan = 0.0_f64;
    for cfg in runs {
        let loss = cfg.rpc.loss;
        eprintln!("  running control-plane loss sweep [loss {loss}] ...");
        let (budget, n) = (cfg.global_cap_w, cfg.servers.len());
        let r = run_cluster(cfg);
        let max_sum = max_caps_sum(&r, budget, n as f64 * floor_w, &format!("loss {loss}"));
        let makespan_ms = r.makespan().as_secs_f64() * 1e3;
        let degradation = if loss == 0.0 {
            base_makespan = makespan_ms;
            "baseline".to_string()
        } else {
            format!("{:+.1}%", 100.0 * (makespan_ms / base_makespan - 1.0))
        };
        let c = &r.control;
        t.row(vec![
            format!("{loss:.2}"),
            format!("{}", r.rounds),
            format!("{makespan_ms:.3}"),
            degradation,
            format!("{}/{}", c.grants_applied, c.grants_sent),
            format!("{}", c.lease_expirations),
            format!("{}", c.floor_rounds),
            format!("{max_sum:.1}"),
            format!("{:.3}", r.total_energy_j()),
        ]);
    }
    ctx.emit(&t, "control_plane_loss.tsv");

    // -- (b) failover, then a 50-round rack partition ----------------------
    let (fail_from, fail_to) = (8u64, 16u64);
    let (part_from, part_to) = (20u64, 70u64);
    let rack = [2usize, 3usize]; // s2, s3
    eprintln!(
        "  running control-plane failover [primary cut {fail_from}..{fail_to}, \
         rack cut {part_from}..{part_to}] ..."
    );
    let primary_cut = PartitionSpec {
        from_round: fail_from,
        to_round: fail_to,
        nodes: vec!["primary".into()],
    };
    let rack_cut = PartitionSpec {
        from_round: part_from,
        to_round: part_to,
        nodes: vec!["s2".into(), "s3".into()],
    };
    let rpc = RpcConfig {
        failover: true,
        floor_cap_w: floor_w,
        partitions: vec![primary_cut.clone(), rack_cut],
        ..RpcConfig::default()
    };
    let lease = rpc.lease_rounds;
    let cfg = scenarios::control_plane(rpc, 90);
    let budget = cfg.global_cap_w;
    let title = format!(
        "Control plane — coordinator failover, then a {}-round rack partition \
         ({}, {lease}-round leases, {} W floor)",
        part_to - part_from,
        fleet(&cfg),
        cfg.rpc.floor_cap_w
    );
    let r = run_cluster(cfg);
    assert!(
        r.rounds as u64 > part_to + 2,
        "horizon ({} rounds) too short to heal the round-{part_to} partition",
        r.rounds
    );
    let c = &r.control;
    assert_eq!(c.elections, 1, "the standby must take over exactly once");
    assert!(c.step_downs >= 1, "the healed primary must step down");
    assert_eq!(c.terms, vec![1, 1], "terms must converge after the heal");
    max_caps_sum(&r, budget, rack.len() as f64 * floor_w, "failover");
    let last_granted: Vec<f64> = rack
        .iter()
        .map(|&s| r.cap_timeline[part_from as usize - 1][s])
        .collect();
    for (round, caps) in r.cap_timeline.iter().enumerate() {
        let round = round as u64;
        if round >= part_from && round < part_to {
            for (k, &s) in rack.iter().enumerate() {
                assert!(
                    caps[s] <= last_granted[k] + 1e-9,
                    "round {round}: partitioned s{s} at {:.3} W exceeds its \
                     last-granted {:.3} W",
                    caps[s],
                    last_granted[k]
                );
            }
        }
        if round >= part_from + lease && round < part_to {
            for &s in &rack {
                assert!(
                    (caps[s] - floor_w).abs() < 1e-9,
                    "round {round}: s{s} should sit on the {floor_w} W floor, \
                     found {:.3} W",
                    caps[s]
                );
            }
        }
    }
    let healed = &r.cap_timeline[part_to as usize + 1];
    assert!(
        rack.iter().any(|&s| healed[s] > floor_w + 1e-9),
        "the rack never rejoined: no fresh grant above the floor after the heal"
    );

    let mut t = Table::new(
        &title,
        &[
            "phase",
            "rounds",
            "rack mean cap (W)",
            "rack max cap (W)",
            "max Σcaps (W)",
            "elections",
            "rack floor server-rounds",
        ],
    );
    let phases: [(&str, u64, u64); 5] = [
        ("steady state", 0, fail_from),
        ("primary cut + takeover", fail_from, part_from),
        ("rack cut: lease-riding", part_from, part_from + lease),
        ("rack cut: floored", part_from + lease, part_to),
        ("healed + rejoined", part_to, r.rounds as u64),
    ];
    for (label, from, to) in phases {
        let window = &r.cap_timeline[from as usize..(to as usize).min(r.cap_timeline.len())];
        let rack_caps: Vec<f64> = window
            .iter()
            .flat_map(|caps| rack.iter().map(|&s| caps[s]))
            .collect();
        let mean = rack_caps.iter().sum::<f64>() / rack_caps.len().max(1) as f64;
        let max = rack_caps.iter().fold(0.0, |a: f64, &b| a.max(b));
        let max_sum = window
            .iter()
            .map(|caps| caps.iter().sum::<f64>())
            .fold(0.0, f64::max);
        let elections_by_then = if to <= fail_from { 0 } else { c.elections };
        let rack_floor_rounds = rack_caps
            .iter()
            .filter(|&&w| w.to_bits() == floor_w.to_bits())
            .count();
        t.row(vec![
            label.to_string(),
            format!("{from}..{}", (to as usize).min(r.cap_timeline.len())),
            format!("{mean:.1}"),
            format!("{max:.1}"),
            format!("{max_sum:.1}"),
            format!("{elections_by_then}"),
            format!("{rack_floor_rounds}"),
        ]);
    }
    ctx.emit(&t, "control_plane_failover.tsv");

    // -- (c) failover on a lossy, high-latency plane -----------------------
    eprintln!("  running control-plane lossy failover [primary cut {fail_from}..{fail_to}] ...");
    let plane = scenarios::lossy_plane(0.2);
    let cfg = scenarios::control_plane(
        RpcConfig {
            jitter_us: plane.latency_us,
            failover: true,
            partitions: vec![primary_cut],
            ..plane
        },
        90,
    );
    let (budget, n) = (cfg.global_cap_w, cfg.servers.len());
    let title = format!(
        "Control plane — failover through a lossy plane \
         ({}, {}-round latency + jitter, {:.0}% loss, {:.0}% duplication, \
         primary cut rounds {fail_from}..{fail_to}; conservation asserted every round \
         incl. takeover)",
        fleet(&cfg),
        latency_rounds(&cfg),
        cfg.rpc.loss * 100.0,
        cfg.rpc.duplicate * 100.0
    );
    let r = run_cluster(cfg);
    let c = &r.control;
    assert!(
        c.elections >= 1,
        "the lossy outage must still elect the standby: {c:?}"
    );
    // The takeover window must conserve too.
    let max_sum = max_caps_sum(&r, budget, n as f64 * floor_w, "lossy failover");

    let mut t = Table::new(
        &title,
        &[
            "rounds",
            "elections",
            "step-downs",
            "grants applied/sent",
            "expired leases",
            "floor rounds",
            "max Σcaps (W)",
            "budget+floors (W)",
            "makespan (ms)",
        ],
    );
    t.row(vec![
        format!("{}", r.rounds),
        format!("{}", c.elections),
        format!("{}", c.step_downs),
        format!("{}/{}", c.grants_applied, c.grants_sent),
        format!("{}", c.lease_expirations),
        format!("{}", c.floor_rounds),
        format!("{max_sum:.1}"),
        format!("{:.1}", budget + n as f64 * floor_w),
        format!("{:.3}", r.makespan().as_secs_f64() * 1e3),
    ]);
    ctx.emit(&t, "control_plane_lossy_failover.tsv");
}

/// Multi-tier request topologies: client requests fan out into DAGs over
/// a two-tier fleet (`fe[2] -> st[2]*2@4` — a power-hungry ILP front end,
/// a storage tier doing 4× the work at 2× the fan-out) and the SLA binds
/// the *end-to-end* p99 of the whole DAG. Three cross-tier disciplines
/// split one 220 W budget:
///
/// * `uniform` — half the budget per tier, blind to where time goes;
/// * `demand-proportional` — watts follow power demand (the hungry front
///   end), not the slow tier;
/// * `critical-path` — watts follow the windowed per-tier critical-path
///   attribution from request traces (PowerTracer's steering inside the
///   lease-capping framework).
///
/// Asserted in-run: only the critical-path split meets the 4 ms
/// end-to-end p99 at this budget — each static split misses the SLO or
/// spends measurably more energy — and the critical-path run is
/// bit-identical across 1/2/4/8 worker threads.
pub fn multi_tier(ctx: &mut Ctx) {
    use service::{run_service, CapSplit};
    let probe = scenarios::multi_tier(CapSplit::CriticalPath, 1);
    let mut t = Table::new(
        &format!(
            "Multi-tier power shifting — {}, {} W budget, 4 ms end-to-end p99 target",
            probe.tiers.as_ref().expect("a tier scenario").graph,
            probe.global_cap_w
        ),
        &[
            "tier split",
            "DAGs closed",
            "e2e p50 (ms)",
            "e2e p99 (ms)",
            "SLO",
            "energy (J)",
            "st crit share",
            "st budget share",
        ],
    );
    let mut met = Vec::new();
    let mut energy = Vec::new();
    for tier_split in [
        CapSplit::Uniform,
        CapSplit::DemandProportional,
        CapSplit::CriticalPath,
    ] {
        eprintln!("  running multi-tier [{tier_split}] ...");
        let r = run_service(scenarios::multi_tier(tier_split, 4));
        let tiers = r.tiers.as_ref().expect("tier summary");
        let st_frac = |caps: &[f64]| (caps[2] + caps[3]) / caps.iter().sum::<f64>();
        t.row(vec![
            tier_split.to_string(),
            format!("{}", tiers.stats.roots_closed),
            format!("{:.3}", tiers.e2e_percentile_s(0.50) * 1e3),
            format!("{:.3}", tiers.e2e_p99_s() * 1e3),
            if tiers.meets_e2e_slo() { "met" } else { "MISS" }.into(),
            format!("{:.2}", r.total_energy_j()),
            format!("{:.3}", tiers.crit_shares()[1]),
            format!("{:.3}", st_frac(r.cap_timeline.last().expect("caps"))),
        ]);
        met.push(tiers.meets_e2e_slo());
        energy.push(r.total_energy_j());
    }
    // The headline claim, asserted: critical-path shifting meets the
    // end-to-end SLO at a budget where each static tier split misses it
    // (or, failing that, spends measurably more energy).
    assert!(met[2], "critical-path must meet the end-to-end p99 SLO");
    for (i, label) in ["uniform", "demand-proportional"].iter().enumerate() {
        assert!(
            !met[i] || energy[i] > energy[2] * 1.03,
            "{label} must miss the SLO or burn >3% more energy than critical-path"
        );
    }

    // Determinism: the critical-path run is bit-identical for any worker
    // thread count.
    let reference = run_service(scenarios::multi_tier(CapSplit::CriticalPath, 1)).digest();
    for threads in [2, 4, 8] {
        let d = run_service(scenarios::multi_tier(CapSplit::CriticalPath, threads)).digest();
        assert_eq!(
            reference, d,
            "multi-tier digest drifted at {threads} threads"
        );
    }
    t.row(vec![
        "determinism".into(),
        "bit-identical 1/2/4/8 threads".into(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    ctx.emit(&t, "multi_tier.tsv");
}

/// The fluid closed-loop client model at population scales the exact
/// per-client pool cannot reach. Two sweeps on a six-server fleet:
///
/// * **Little's-law curve** — a fixed 10⁴-client population over a
///   horizon covering several think cycles, with the mean think time
///   swept from long to short so the operating point moves from
///   think-limited (offered load `N/(Z+R)` well under fleet capacity,
///   measured completion throughput tracking the prediction) into
///   capacity-limited (throughput saturates, the `X·(Z+R)/N` ratio falls
///   below one and shed appears). The ratio column *is* the sanity check:
///   the aggregated counters reproduce the machine-repairman law the exact
///   pool obeys by construction.
/// * **Million-client diurnal sweep** — 10⁶ clients whose think rate is
///   modulated day/night ([`service::ClosedLoopConfig::with_think_diurnal`]),
///   swept over modulation depths. Request conservation
///   (`generated = completed + shed + abandoned`, population constant) is
///   asserted in-run at every depth, and the deepest sweep is run again at
///   a different thread count and required to produce a bit-identical
///   digest.
///
/// The wall-clock column is the point: per-round cost scales with *issued
/// requests*, not population, so a million clients cost seconds.
pub fn fluid_clients(ctx: &mut Ctx) {
    use cluster::BalancePolicy;
    use service::{
        run_service, CapSplit, ClientModel, ClosedLoopConfig, ServiceConfig, ServiceResult,
        ServiceServerSpec,
    };

    let fleet = |seed: u64| -> Vec<ServiceServerSpec> {
        (0..6)
            .map(|i| {
                let mix = ["ILP1", "MID1", "ILP2", "MID2", "ILP1", "MID1"][i];
                ServiceServerSpec::small(&format!("srv{i}"), mix, seed ^ (i as u64 + 1), 0.0)
                    .with_p99_target_s(2e-3)
            })
            .collect()
    };
    let assert_conserved = |r: &ServiceResult, clients: usize, label: &str| {
        let cl = r.closed_loop.as_ref().expect("closed-loop run");
        let terminal: u64 = r
            .outcomes
            .iter()
            .map(|o| o.completed + o.shed + o.abandoned)
            .sum();
        assert_eq!(cl.generated, terminal, "[{label}] request leak");
        assert_eq!(
            cl.thinking_at_end + cl.waiting_at_end,
            clients,
            "[{label}] population not conserved"
        );
    };

    // --- Part 1: Little's-law sanity curve -------------------------------
    // The horizon must span several think cycles (else the all-ready
    // initial burst dominates the averages), and the longest think must
    // keep `N/Z` under the fleet's ~1.1 M req/s completion capacity so the
    // curve actually has a think-limited end.
    let clients = if ctx.opts.quick { 5_000 } else { 10_000 };
    let rounds = if ctx.opts.quick { 60 } else { 150 };
    let thinks_ms: &[u64] = if ctx.opts.quick {
        &[20, 10, 5, 2]
    } else {
        &[40, 20, 10, 5, 2]
    };
    let mut t = Table::new(
        &format!("Fluid closed loop — Little's-law curve, {clients} clients, 6 servers"),
        &[
            "think (ms)",
            "generated",
            "completed",
            "X (req/s)",
            "R mean (ms)",
            "X(Z+R)/N",
            "shed frac",
            "p99 (ms)",
        ],
    );
    for &think_ms in thinks_ms {
        eprintln!("  running fluid Little curve [think {think_ms} ms] ...");
        let r = run_service(
            ServiceConfig::new(fleet(7), 300.0, CapSplit::FastCap)
                .with_rounds(rounds)
                .with_threads(4)
                .with_closed_loop(
                    ClosedLoopConfig::new(
                        clients,
                        Ps::from_ms(think_ms),
                        BalancePolicy::LeastQueue,
                    )
                    .with_seed(7)
                    .with_model(ClientModel::Fluid),
                ),
        );
        assert_conserved(&r, clients, &format!("little think={think_ms}ms"));
        let cl = r.closed_loop.as_ref().unwrap();
        let hist = r.fleet_hist();
        let horizon_s = rounds as f64 * 1e-3;
        let x = r.total_completed() as f64 / horizon_s;
        let r_mean_s = hist.mean() * 1e-12;
        let ratio = x * (think_ms as f64 * 1e-3 + r_mean_s) / clients as f64;
        t.row(vec![
            format!("{think_ms}"),
            format!("{}", cl.generated),
            format!("{}", r.total_completed()),
            format!("{:.0}", x),
            format!("{:.3}", r_mean_s * 1e3),
            format!("{:.3}", ratio),
            format!("{:.3}", r.total_shed() as f64 / cl.generated.max(1) as f64),
            format!("{:.3}", r.fleet_percentile_s(0.99) * 1e3),
        ]);
    }
    ctx.emit(&t, "fluid_clients_little.tsv");

    // --- Part 2: million-client diurnal sweep ----------------------------
    let clients = 1_000_000;
    let rounds = if ctx.opts.quick { 12 } else { 40 };
    let mk = |depth: f64, threads: usize| {
        ServiceConfig::new(fleet(9), 300.0, CapSplit::FastCap)
            .with_rounds(rounds)
            .with_threads(threads)
            .with_closed_loop(
                ClosedLoopConfig::new(clients, Ps::from_ms(500), BalancePolicy::LeastQueue)
                    .with_seed(9)
                    .with_model(ClientModel::Fluid)
                    .with_think_diurnal(Ps::from_ms(10), depth),
            )
    };
    let mut t = Table::new(
        &format!("Fluid closed loop — diurnal sweep, {clients} clients, 500 ms think"),
        &[
            "depth",
            "generated",
            "responses",
            "completed",
            "shed frac",
            "p99 (ms)",
            "energy (J)",
            "wall (s)",
        ],
    );
    let mut deep_digest = String::new();
    for depth in [0.0, 0.5, 0.9] {
        eprintln!("  running fluid diurnal [depth {depth}] ...");
        let start = Instant::now();
        let r = run_service(mk(depth, 4));
        let wall = start.elapsed().as_secs_f64();
        assert_conserved(&r, clients, &format!("diurnal depth={depth}"));
        let cl = r.closed_loop.as_ref().unwrap();
        if depth == 0.9 {
            deep_digest = r.digest();
        }
        t.row(vec![
            format!("{depth:.1}"),
            format!("{}", cl.generated),
            format!("{}", cl.responses),
            format!("{}", r.total_completed()),
            format!("{:.3}", r.total_shed() as f64 / cl.generated.max(1) as f64),
            format!("{:.3}", r.fleet_percentile_s(0.99) * 1e3),
            format!("{:.2}", r.total_energy_j()),
            format!("{wall:.2}"),
        ]);
    }
    eprintln!("  re-running depth 0.9 on 8 threads (digest check) ...");
    let wide = run_service(mk(0.9, 8));
    assert_eq!(
        deep_digest,
        wide.digest(),
        "million-client fluid digest diverged across thread counts"
    );
    ctx.emit(&t, "fluid_clients_diurnal.tsv");
}

/// One experiment: the names that select it on the command line,
/// canonical name first, and the function that runs it.
pub type Experiment = (&'static [&'static str], fn(&mut Ctx));

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    (&["table1"], table1),
    (&["fig5"], fig5),
    (&["fig6"], fig6),
    (&["fig7"], fig7),
    (&["fig8_9", "fig8", "fig9"], fig8_9),
    (&["fig10"], fig10),
    (&["fig11"], fig11),
    (&["fig12_13", "fig12", "fig13"], fig12_13),
    (&["fig14"], fig14),
    (&["fig15"], fig15),
    (&["fig16"], fig16),
    (&["fig17_18", "fig17", "fig18"], fig17_18),
    (&["search-cost"], search_cost),
    (&["ablation-grouping"], ablation_grouping),
    (&["ablation-phase"], ablation_phase),
    (&["ablation-page-policy"], ablation_page_policy),
    (&["ablation-idle-states"], ablation_idle_states),
    (&["ablation-voltage-domains"], ablation_voltage_domains),
    (&["cluster-capping"], cluster_capping),
    (&["service-sla"], service_sla),
    (&["hierarchical-capping"], hierarchical_capping),
    (&["closed-loop-balancing"], closed_loop_balancing),
    (&["fluid-clients"], fluid_clients),
    (&["multi-tier"], multi_tier),
    (&["fleet-scale"], fleet_scale),
    (&["control-plane"], control_plane),
];

/// Runs every experiment of [`EXPERIMENTS`], in order.
pub fn all(ctx: &mut Ctx) {
    for (_, run) in EXPERIMENTS {
        run(ctx);
    }
}
