//! Front-door checks for `coscale-sim cluster`: a flag that would do
//! nothing, or a configuration that could only fail mid-run, exits 2 with
//! a message before any simulation starts.

use std::process::{Command, Output};

fn cluster(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coscale-sim"))
        .arg("cluster")
        .args(args)
        .output()
        .expect("coscale-sim runs")
}

/// Asserts exit status 2 and a stderr line containing `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = cluster(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: no '{needle}' in:\n{stderr}"
    );
}

#[test]
fn removed_flags_are_unknown() {
    assert_rejected(&["--engine", "event"], "unknown flag --engine");
    assert_rejected(&["--wake-shards", "3"], "unknown flag --wake-shards");
    assert_rejected(
        &["--quarantine-rounds", "4"],
        "unknown flag --quarantine-rounds",
    );
    assert_rejected(&["--dead-band", "5"], "unknown flag --dead-band");
}

#[test]
fn an_unknown_split_is_rejected() {
    assert_rejected(&["--split", "nosuch"], "unknown split 'nosuch'");
}

#[test]
fn batch_rejects_zero_epochs_per_round() {
    assert_rejected(
        &["--epochs-per-round", "0"],
        "epochs_per_round must be positive",
    );
}

#[test]
fn serving_rejects_zero_epochs_per_round() {
    assert_rejected(
        &["--serve", "--epochs-per-round", "0"],
        "epochs_per_round must be positive",
    );
}

#[test]
fn batch_rejects_non_finite_watts() {
    let fleet = ["--fleet-size", "8"];
    for (flag, needle) in [("--cap", "global cap inf"), ("--quantum", "quantum inf")] {
        assert_rejected(&[&fleet[..], &[flag, "inf"]].concat(), needle);
    }
    assert_rejected(&[&fleet[..], &["--cap", "nan"]].concat(), "global cap NaN");
}

#[test]
fn serving_rejects_an_infinite_cap() {
    assert_rejected(&["--serve", "--cap", "inf"], "global cap inf");
}

#[test]
fn serving_rejects_a_zero_quantum() {
    assert_rejected(&["--serve", "--quantum", "0"], "quantum 0");
}

#[test]
fn serving_rejects_epochs_past_max_epochs() {
    // 40 rounds of 100,000 epochs each exceed the 1,000,000-epoch guard.
    assert_rejected(&["--serve", "--epochs-per-round", "100000"], "max_epochs");
}

#[test]
fn serving_rejects_a_tier_named_like_the_tier_root() {
    assert_rejected(
        &["--serve", "--clients", "16", "--tiers", "tiers[2] -> st[2]"],
        "duplicate group label 'tiers'",
    );
}

#[test]
fn serving_rejects_a_join_past_the_horizon() {
    assert_rejected(
        &["--serve", "--rounds", "4", "--join", "9:late=ILP1"],
        "churn join late at round 9",
    );
}

#[test]
fn serving_rejects_bad_rates_and_p99_targets() {
    for (flag, value, needle) in [
        ("--rate", "nan", "arrival rate NaN"),
        ("--rate", "inf", "arrival rate inf"),
        ("--rate", "-5", "arrival rate -5"),
        ("--p99-target", "nan", "p99 target NaN"),
        ("--p99-target", "inf", "p99 target inf"),
        ("--join", "2:late=ILP1@inf", "churn join late at round 2"),
    ] {
        assert_rejected(&["--serve", flag, value], needle);
    }
}

#[test]
fn batch_rejects_an_infinite_lease_floor() {
    assert_rejected(
        &[
            "--fleet-size",
            "8",
            "--idle-fraction",
            "0",
            "--epochs-per-round",
            "1",
            "--floor-cap",
            "inf",
            "--partition",
            "2:30:s0000",
        ],
        "floor cap inf",
    );
}

#[test]
fn a_tiny_batch_run_succeeds() {
    let out = cluster(&["--servers", "a=ILP1:2", "--cap", "60", "--threads", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("fleet energy"), "{stdout}");
}
