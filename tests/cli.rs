//! Front-door checks for `coscale-sim`: a flag that would do nothing, a
//! repeated flag, or a configuration that could only fail mid-run, exits 2
//! with a message before any simulation starts.

use std::process::{Command, Output, Stdio};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coscale-sim"))
        .args(args)
        .output()
        .expect("coscale-sim runs")
}

fn cluster(args: &[&str]) -> Output {
    sim(&[&["cluster"], args].concat())
}

/// Asserts exit status 2 and a stderr line containing `needle`.
fn assert_exits_2(out: Output, args: &[&str], needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: no '{needle}' in:\n{stderr}"
    );
}

/// [`assert_exits_2`] for a `cluster` command line.
fn assert_rejected(args: &[&str], needle: &str) {
    assert_exits_2(cluster(args), args, needle);
}

/// Small fleets, so a run that is wrongly accepted still ends quickly.
const BATCH: [&str; 4] = ["--servers", "a=ILP1:1", "--cap", "30"];
const SERVE: [&str; 3] = ["--serve", "--rounds", "2"];
const CLOSED: [&str; 5] = ["--serve", "--rounds", "2", "--clients", "8"];

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
fn serving_rejects_a_leave_of_no_server_in_the_fleet() {
    assert_rejected(
        &[
            "--serve",
            "--servers",
            "a=MID1,b=ILP1",
            "--leave",
            "2:zz",
            "--rounds",
            "4",
        ],
        "churn leave zz at round 2: no server 'zz' is in the fleet at that round",
    );
}

#[test]
fn serving_rejects_a_leave_past_the_horizon() {
    assert_rejected(
        &[
            "--serve",
            "--servers",
            "a=MID1,b=ILP1",
            "--leave",
            "9:a",
            "--rounds",
            "4",
        ],
        "churn leave a at round 9: at or past the 4-round horizon",
    );
}

#[test]
fn batch_rejects_a_repeated_server_name() {
    assert_rejected(
        &["--servers", "a=MID1,a=ILP1"],
        "server name 'a' appears twice in the fleet",
    );
}

#[test]
fn serving_rejects_a_join_whose_name_is_in_the_fleet() {
    let churn = ["--join", "1:c=MID1", "--join", "2:c=MID2", "--leave", "3:c"];
    assert_rejected(
        &[
            &["--serve", "--servers", "a=MID1,b=ILP1", "--rounds", "5"][..],
            &churn,
        ]
        .concat(),
        "churn join c at round 2: server 'c' is already in the fleet",
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
        // Past one thinning candidate per picosecond the arrival gaps
        // round to 0 ps and the generator's clock stops.
        ("--rate", "1e300", "arrival envelope 1e300/s"),
        ("--rate", "1.1e12", "arrival envelope 1.1e12/s"),
        ("--join", "2:late=ILP1@2e12", "arrival envelope 2e12/s"),
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

/// The command line of [`a_tiny_batch_run_succeeds`].
const TINY_BATCH: [&str; 6] = ["--servers", "a=ILP1:2", "--cap", "60", "--threads", "2"];

#[test]
fn a_tiny_batch_run_succeeds() {
    let out = cluster(&TINY_BATCH);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("fleet energy"), "{stdout}");
}

/// A reader that closed stderr changes no exit status: the usage text,
/// the error messages and the progress lines go unwritten, without a panic.
#[test]
fn a_closed_stderr_keeps_the_exit_status() {
    let serve_bad_join = [
        "cluster",
        "--serve",
        "--rounds",
        "4",
        "--servers",
        "b=ILP1",
        "--join",
        "3",
    ];
    let tiny_batch = [&["cluster"][..], &TINY_BATCH].concat();
    for (args, code) in [
        (&["--bogus"][..], 2),
        (&serve_bad_join[..], 2),
        (&tiny_batch[..], 0),
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_coscale-sim"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("coscale-sim runs");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
}

#[test]
fn a_topology_run_names_its_tree_and_not_the_split_it_ignores() {
    let tree = "dc:uniform[a,b]";
    let servers = ["--servers", "a=ILP1:1,b=ILP1:1", "--cap", "60"];
    for (mode, extra) in [("batch", &[][..]), ("serving", &SERVE[..])] {
        let args = [&servers[..], extra, &["--topology", tree]].concat();
        let out = cluster(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{mode} fleet / {tree} @")),
            "{args:?}: {stderr}"
        );
        assert!(
            stdout.contains(&format!("topology       : {tree}\n")),
            "{args:?}: {stdout}"
        );
        assert!(!stdout.contains("split "), "{args:?}: {stdout}");
    }
}

#[test]
fn batch_rejects_an_rpc_delay_that_overflows() {
    // The delay saturates at u64::MAX rounds and fails the lease check,
    // instead of wrapping to 0 rounds and passing it.
    assert_rejected(
        &[
            "--servers",
            "a=ILP1:2",
            "--cap",
            "60",
            "--rpc-latency-us",
            "1e300",
            "--rpc-jitter-us",
            "1",
        ],
        &format!("rpc delay of up to {} rounds", u64::MAX),
    );
}

#[test]
fn a_lease_of_u64_max_rounds_never_expires_a_grant() {
    let args = [&BATCH[..], &["--lease-rounds", "18446744073709551615"]].concat();
    let out = cluster(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(" 0 expired)"), "{stdout}");
}

#[test]
fn flags_outside_their_runs_are_rejected() {
    let cases: [(&[&str], &str, &[&str]); 21] = [
        (&BATCH, "--rounds", &["--rounds", "3"]),
        (&BATCH, "--rate", &["--rate", "100"]),
        (&BATCH, "--p99-target", &["--p99-target", "2"]),
        (&BATCH, "--think-ms", &["--think-ms", "1"]),
        (&BATCH, "--balance", &["--balance", "least-queue"]),
        (&BATCH, "--client-model", &["--client-model", "fluid"]),
        (&BATCH, "--tier-floor", &["--tier-floor", "0.2"]),
        (&BATCH, "--e2e-target", &["--e2e-target", "3"]),
        (&BATCH, "--idle-fraction", &["--idle-fraction", "0.5"]),
        (&["--fleet-size", "8"], "--seed", &["--seed", "3"]),
        (
            &["--fleet-size", "8"],
            "--servers",
            &["--servers", "a=ILP1"],
        ),
        (&CLOSED, "--rate", &["--rate", "100"]),
        (
            &CLOSED,
            "@rate in 'a=ILP1@100'",
            &["--servers", "a=ILP1@100"],
        ),
        (
            &CLOSED,
            "@rate in '1:b=ILP1@100'",
            &["--join", "1:b=ILP1@100"],
        ),
        (&SERVE, "--think-ms", &["--think-ms", "1"]),
        (&SERVE, "--balance", &["--balance", "least-queue"]),
        (&SERVE, "--client-model", &["--client-model", "fluid"]),
        (&SERVE, "--think-diurnal", &["--think-diurnal", "5:0.5"]),
        (&CLOSED, "--tier-floor", &["--tier-floor", "0.2"]),
        (&CLOSED, "--e2e-target", &["--e2e-target", "3"]),
        (
            &["--cap", "30"],
            "@rate in 'a=ILP1:1@100'",
            &["--servers", "a=ILP1:1@100"],
        ),
    ];
    for (base, what, extra) in cases {
        assert_rejected(
            &[base, extra].concat(),
            &format!("{what} does nothing here"),
        );
    }
    let tiers = ["--tiers", "fe[1] -> st[1]", "--servers", "st=MID2@500"];
    assert_rejected(
        &[&CLOSED[..], &tiers].concat(),
        "@rate in 'st=MID2@500' does nothing here",
    );
}

#[test]
fn plane_churn_and_synthetic_fleet_flags_keep_their_runs() {
    for (base, flag, extra) in [
        (&SERVE[..], "--rpc-loss", &["--rpc-loss", "0.1"]),
        (&SERVE[..], "--fleet-size", &["--fleet-size", "8"]),
        (&BATCH[..], "--join", &["--join", "1:b=ILP1"]),
    ] {
        assert_rejected(
            &[base, extra].concat(),
            &format!("{flag} does nothing here"),
        );
    }
}

#[test]
fn single_server_cap_needs_the_powercap_policy_and_a_positive_budget() {
    let small = ["--mix", "ILP1", "--instrs", "20000", "--cores", "1"];
    let args = [&small[..], &["--cap", "60"]].concat();
    assert_exits_2(sim(&args), &args, "--cap does nothing here");
    // These used to panic in `PowerCapPolicy::new`.
    for cap in ["0", "-5", "nan"] {
        let args = [&small[..], &["--policy", "powercap", "--cap", cap]].concat();
        assert_exits_2(sim(&args), &args, "must be a positive wattage");
    }
}

#[test]
fn single_server_flags_name_the_bad_value() {
    for (flag, value) in [
        ("--gamma", "abc"),
        ("--instrs", "-5"),
        ("--cores", "x"),
        ("--seed", "x"),
    ] {
        let args = [flag, value];
        assert_exits_2(sim(&args), &args, &format!("bad {flag} '{value}': "));
    }
}

#[test]
fn numbers_inside_flag_values_name_the_parse_error() {
    let digit = "invalid digit found in string";
    let serve = |more: &[&'static str]| [&SERVE[..], more].concat();
    for (args, needle) in [
        (
            vec!["--servers", "a=ILP1:x"],
            format!("bad core count in server entry 'a=ILP1:x', 'x': {digit}"),
        ),
        (
            serve(&["--servers", "a=ILP1@x"]),
            "bad @rate in server entry 'a=ILP1@x', 'x': invalid float literal".to_string(),
        ),
        (
            serve(&["--join", "x:b=ILP1"]),
            format!("bad round number in --join 'x:b=ILP1', 'x': {digit}"),
        ),
        (
            vec!["--partition", "x:3:primary"],
            format!("bad FROM round in --partition 'x:3:primary', 'x': {digit}"),
        ),
        (
            vec!["--partition", "3:-1:primary"],
            format!("bad TO round in --partition '3:-1:primary', '-1': {digit}"),
        ),
    ] {
        assert_rejected(&args, &needle);
    }
}

/// Malformed serving and plane flag values exit 2 before round 0 with a
/// message that names the flag or the value, and nothing panics.
#[test]
fn malformed_serving_and_plane_values_exit_2_naming_them() {
    let plane = ["--fleet-size", "8"];
    let fluid = [&CLOSED[..], &["--client-model", "fluid"]].concat();
    let serve = [
        "--serve",
        "--rounds",
        "4",
        "--servers",
        "light1=ILP1,b=MID1",
    ];
    #[rustfmt::skip]
    let cases: [(&[&str], &str, &str, &str); 19] = [
        (&plane, "--partition", "10:5:primary", "partition rounds 10..5 are empty"),
        (&plane, "--partition", "1:2:", "--partition '1:2:' names no nodes"),
        (&plane, "--partition", "1:2", "--partition value '1:2' must look like"),
        (&plane, "--partition", "a:2:primary", "bad FROM round in --partition 'a:2:primary'"),
        (&plane, "--partition", "1:2:nosuch", "unknown node 'nosuch'"),
        (&fluid, "--think-diurnal", "5", "--think-diurnal wants PERIOD_MS:DEPTH"),
        (&fluid, "--think-diurnal", "5:2", "diurnal depth 2 must be in [0, 1]"),
        (&fluid, "--think-diurnal", "x:0.5", "bad --think-diurnal period 'x'"),
        (&fluid, "--think-diurnal", "0:0.5", "diurnal depth needs a positive period"),
        (&fluid, "--think-diurnal", "5:nan", "diurnal depth NaN must be in [0, 1]"),
        (&serve, "--join", "3", "--join value '3' must look like ROUND:"),
        (&serve, "--join", "x:a=MID1", "bad round number in --join 'x:a=MID1'"),
        (&serve, "--join", "3:a", "server entry 'a' must look like name=mix"),
        (&serve, "--join", "3:a=NOPE", "unknown mix 'NOPE' in server entry 'a=NOPE'"),
        (&serve, "--join", "3:=MID1", "empty server name in entry '=MID1'"),
        (&serve, "--join", "3:a=MID1:0", "churn join a at round 3: server a: cores 0"),
        (&serve, "--leave", "3", "--leave value '3' must look like ROUND:"),
        (&serve, "--leave", ":light1", "bad round number in --leave ':light1'"),
        (&serve, "--leave", "3:", "churn leave  at round 3: no server ''"),
    ];
    for (base, flag, value, needle) in cases {
        let args = [base, &[flag, value]].concat();
        let out = cluster(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_exits_2(out, &args, needle);
    }
}

#[test]
fn a_repeated_flag_is_rejected() {
    let args = [
        "--mix", "ILP1", "--mix", "MEM1", "--instrs", "20000", "--cores", "1",
    ];
    assert_exits_2(sim(&args), &args, "--mix given twice");
    assert_rejected(
        &["--servers", "a=ILP1:1", "--servers", "b=MEM1:1"],
        "--servers given twice",
    );
    assert_rejected(
        &[&BATCH[..], &["--cap", "40"]].concat(),
        "--cap given twice",
    );
    assert_rejected(&[&SERVE[..], &["--serve"]].concat(), "--serve given twice");
}

#[test]
fn millisecond_values_past_the_clock_are_rejected() {
    assert_rejected(
        &[&CLOSED[..], &["--think-ms", "1e30"]].concat(),
        "--think-ms 1e30 ms must be finite",
    );
    let fluid = ["--client-model", "fluid"];
    for period in ["-5", "nan", "inf", "1e30"] {
        let diurnal = format!("{period}:0.5");
        assert_rejected(
            &[&CLOSED[..], &fluid, &["--think-diurnal", &diurnal]].concat(),
            &format!("--think-diurnal period {period} ms must be finite"),
        );
    }
}

#[test]
fn repeatable_and_scoped_flags_still_run() {
    let out = cluster(&[
        "--serve",
        "--rounds",
        "3",
        "--servers",
        "a=ILP1@2000,b=MID1",
        "--join",
        "1:c=ILP2@1000",
        "--join",
        "2:d=ILP1",
        "--leave",
        "2:a",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
