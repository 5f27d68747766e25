//! Focused unit tests of the individual policies against hand-constructed
//! profiles, where the correct decisions can be reasoned out by hand.

use coscale::{
    CoScalePolicy, CoreProfile, CpuOnlyPolicy, EpochProfile, MemProfile, MemScalePolicy, Model,
    OfflinePolicy, Plan, Policy, PowerCapPolicy, SimConfig, StaticMaxPolicy,
};
use memsim::MemConfig;
use powermodel::PowerConfig;
use simkernel::{Freq, Ps};

/// A profile where core 0 is strongly compute-bound and core 1 strongly
/// memory-bound, with light memory traffic overall.
fn contrast_profile() -> EpochProfile {
    EpochProfile {
        cores: vec![
            CoreProfile {
                cpu_cycles_pi: 1.3,
                l2_s_pi: 30e-12,
                mem_s_pi: 5e-12,
                instrs: 800_000,
                cac_pi: [0.45, 0.02, 0.18, 0.35],
            },
            CoreProfile {
                cpu_cycles_pi: 1.1,
                l2_s_pi: 150e-12,
                mem_s_pi: 1500e-12,
                instrs: 200_000,
                cac_pi: [0.28, 0.32, 0.08, 0.32],
            },
        ],
        mem: MemProfile {
            bank_wait_s: 5e-9,
            bus_wait_s: 1e-9,
            reads: 8_000,
            page_opens: 10_000,
            refreshes: 38,
            rank_active_s: 3e-5,
            l2_accesses: 40_000,
        },
        window: Ps::from_us(300),
        core_freq_idx: vec![9, 9],
        mem_freq_idx: 9,
    }
}

struct Fix {
    core_grid: Vec<Freq>,
    mem_cfg: MemConfig,
    power: PowerConfig,
}

fn fix() -> Fix {
    Fix {
        core_grid: SimConfig::core_grid_with_steps(10),
        mem_cfg: MemConfig::default(),
        power: PowerConfig::default(),
    }
}

fn model<'a>(f: &'a Fix, p: &'a EpochProfile, slack: &'a [f64], gamma: f64) -> Model<'a> {
    Model::new(
        p,
        &f.core_grid,
        &f.mem_cfg.freq_grid,
        &f.power,
        slack,
        Ps::from_ms(1),
        gamma,
    )
}

#[test]
fn coscale_scales_memory_bound_core_deeper() {
    let f = fix();
    let p = contrast_profile();
    let slack = [0.0, 0.0];
    let m = model(&f, &p, &slack, 0.10);
    let plan = CoScalePolicy::default().decide(&m, &Plan::max(2, 10, 10));
    assert!(
        plan.cores[1] < plan.cores[0],
        "memory-bound core should drop further: {:?}",
        plan.cores
    );
    assert!(m.plan_ok(&plan));
}

#[test]
fn coscale_visits_max_plan_when_nothing_is_feasible() {
    let f = fix();
    let p = contrast_profile();
    // Deep debt: even one step breaks the bound.
    let slack = [-1.0, -1.0];
    let m = model(&f, &p, &slack, 0.01);
    let plan = CoScalePolicy::default().decide(&m, &Plan::max(2, 10, 10));
    assert_eq!(plan, Plan::max(2, 10, 10));
}

#[test]
fn coscale_with_zero_gamma_and_surplus_still_bounded() {
    let f = fix();
    let p = contrast_profile();
    // One epoch of pure surplus lets it scale despite gamma = 0.
    let slack = [5e-4, 5e-4];
    let m = model(&f, &p, &slack, 0.0);
    let plan = CoScalePolicy::default().decide(&m, &Plan::max(2, 10, 10));
    assert!(m.plan_ok(&plan));
}

#[test]
fn grouping_off_never_beats_grouping_on_in_model_ser() {
    let f = fix();
    let p = contrast_profile();
    let slack = [0.0, 0.0];
    let m = model(&f, &p, &slack, 0.10);
    let max = Plan::max(2, 10, 10);
    let with = CoScalePolicy { group_cores: true }.decide(&m, &max);
    let without = CoScalePolicy { group_cores: false }.decide(&m, &max);
    assert!(
        m.ser(&with) <= m.ser(&without) + 1e-9,
        "grouping should not hurt: {} vs {}",
        m.ser(&with),
        m.ser(&without)
    );
}

#[test]
fn memscale_walks_only_memory_and_stays_feasible() {
    let f = fix();
    let p = contrast_profile();
    let slack = [0.0, 0.0];
    let m = model(&f, &p, &slack, 0.10);
    let plan = MemScalePolicy.decide(&m, &Plan::max(2, 10, 10));
    assert_eq!(plan.cores, vec![9, 9]);
    assert!(plan.mem < 9, "light traffic leaves memory headroom");
    assert!(m.plan_ok(&plan));
}

#[test]
fn cpuonly_leaves_memory_at_max() {
    let f = fix();
    let p = contrast_profile();
    let slack = [0.0, 0.0];
    let m = model(&f, &p, &slack, 0.10);
    let plan = CpuOnlyPolicy.decide(&m, &Plan::max(2, 10, 10));
    assert_eq!(plan.mem, 9);
    assert!(plan.cores.iter().any(|&c| c < 9));
    assert!(m.plan_ok(&plan));
}

#[test]
fn offline_dominates_every_other_policy_in_model_ser() {
    let f = fix();
    let p = contrast_profile();
    let slack = [0.0, 0.0];
    let m = model(&f, &p, &slack, 0.10);
    let max = Plan::max(2, 10, 10);
    let off = OfflinePolicy.decide(&m, &max);
    let off_ser = m.ser(&off);
    for plan in [
        CoScalePolicy::default().decide(&m, &max),
        MemScalePolicy.decide(&m, &max),
        CpuOnlyPolicy.decide(&m, &max),
        StaticMaxPolicy.decide(&m, &max),
    ] {
        assert!(
            off_ser <= m.ser(&plan) + 1e-9,
            "Offline ({off_ser}) must dominate {plan:?} ({})",
            m.ser(&plan)
        );
    }
}

#[test]
fn power_cap_reaches_budget_or_bottom() {
    let f = fix();
    let p = contrast_profile();
    let slack = [0.0, 0.0];
    let m = model(&f, &p, &slack, 0.10);
    let max = Plan::max(2, 10, 10);
    let p_max = m.power(&max).total();
    // A cap 10% under the max-plan power must be met.
    let cap = p_max * 0.9;
    let plan = PowerCapPolicy::new(cap).decide(&m, &max);
    assert!(
        m.power(&plan).total() <= cap + 1e-9,
        "cap not met: {} > {cap}",
        m.power(&plan).total()
    );
    // An impossible cap bottoms out at the minimum plan.
    let plan = PowerCapPolicy::new(1.0).decide(&m, &max);
    assert!(plan.cores.iter().all(|&c| c == 0));
    assert_eq!(plan.mem, 0);
}

#[test]
fn power_cap_prefers_cheap_performance() {
    let f = fix();
    let p = contrast_profile();
    let slack = [0.0, 0.0];
    let m = model(&f, &p, &slack, 0.10);
    let max = Plan::max(2, 10, 10);
    let cap = m.power(&max).total() * 0.85;
    let plan = PowerCapPolicy::new(cap).decide(&m, &max);
    // The memory-bound core is the cheap place to shed watts: it must not
    // stay at max while the compute-bound core is pushed down.
    assert!(
        plan.cores[1] <= plan.cores[0],
        "capper should shed from the insensitive core first: {:?}",
        plan.cores
    );
}

#[test]
fn power_cap_sub_minimum_budget_returns_all_min_plan() {
    // A cap below even the all-minimum plan's power (leakage + idle DRAM is
    // tens of watts) is unreachable: decide must terminate and hand back
    // the all-minimum plan, never loop or panic.
    let f = fix();
    let p = contrast_profile();
    let slack = [0.0, 0.0];
    let m = model(&f, &p, &slack, 0.10);
    let max = Plan::max(2, 10, 10);
    let all_min = Plan {
        cores: vec![0; 2],
        mem: 0,
    };
    assert!(
        m.power(&all_min).total() > f64::MIN_POSITIVE,
        "test premise: even all-min draws real power"
    );
    for cap in [f64::MIN_POSITIVE, 1e-9, 0.5] {
        let plan = PowerCapPolicy::new(cap).decide(&m, &max);
        assert_eq!(plan, all_min, "cap {cap} should bottom out at all-min");
    }
}

#[test]
#[should_panic(expected = "positive")]
fn power_cap_rejects_nonpositive_budget() {
    let _ = PowerCapPolicy::new(0.0);
}
