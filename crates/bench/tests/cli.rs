//! Command-line error paths of the `repro` binary. Every case must exit 1
//! with an `error:` line, without a panic and before any simulation runs.

use std::process::Command;

fn assert_rejected(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains(needle)),
        "{args:?}: no `error:` line naming {needle}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} did work before failing");
}

#[test]
fn zero_counts_are_rejected() {
    for command in ["admission", "sweep", "tune", "shard", "fig2"] {
        assert_rejected(&[command, "--quick", "--threads", "0"], "--threads");
    }
    assert_rejected(&["profile", "--quick", "--requests", "0"], "--requests");
}

#[test]
fn scoped_flags_are_rejected_outside_their_commands() {
    let cases: [(&str, &[&str]); 10] = [
        ("--json", &["admission", "--json", "x.json"]),
        ("--suite-out", &["sweep", "--suite-out", "x.json"]),
        ("--schedulers", &["tune", "--schedulers", "META"]),
        ("--requests", &["sweep", "--requests", "5"]),
        ("--baseline", &["shard", "--baseline", "x.json"]),
        ("--sample", &["profile", "--sample", "4"]),
        ("--out", &["exact", "--out", "x.json"]),
        ("--warm-cache", &["trace", "--warm-cache", "x.json"]),
        ("--cache-out", &["admission", "--cache-out", "x.json"]),
        ("--root", &["exact", "--root", "."]),
    ];
    for (flag, args) in cases {
        assert_rejected(&[args, &["--quick"]].concat(), flag);
    }
}

#[test]
fn unknown_commands_and_values_are_rejected() {
    assert_rejected(&["frobnicate"], "frobnicate");
    assert_rejected(&["sweep", "--threads", "many"], "--threads");
    assert_rejected(&["--json"], "--json");
}
