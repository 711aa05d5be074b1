//! The bench binary end to end at smoke horizons: every workload through
//! the same fresh-process runner and correctness gate as a full run.

use std::collections::BTreeSet;
use std::process::Command;
use tango_perfbench::metrics::{END_TO_END, PER_LAYER};
use tango_perfbench::workloads::Workload;

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

/// Run the bench binary from the repository root; returns (exit ok, stdout).
fn bench(args: &[&str], env: &[(&str, &str)]) -> (bool, String) {
    let out = Command::new(BENCH)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the bench binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn digests(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.starts_with("# ") && l.contains(" digest="))
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .collect()
}

#[test]
fn every_workload_passes_the_gate_at_a_smoke_horizon() {
    // 600 ms: the shortest horizon at which `spill_ckpt` has taken a
    // checkpoint to resume from (one every 500 ms)
    let mut args = vec!["--horizon-ms", "600", "--seconds", "0.1"];
    for w in Workload::ALL {
        args.extend(["--workload", w.name()]);
    }
    let (ok, stdout) = bench(&args, &[]);
    assert!(ok, "smoke run failed:\n{stdout}");
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );

    // every printed metric is declared, and every declared one is
    // printed, except the window p95 that needs more windows than a
    // smoke horizon has
    let declared: BTreeSet<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    for w in Workload::ALL {
        let printed: BTreeSet<&str> = stdout
            .lines()
            .filter_map(|l| l.strip_prefix(w.name())?.split_whitespace().next())
            .collect();
        assert!(
            printed.is_subset(&declared),
            "{:?}",
            printed.difference(&declared)
        );
        let missing: Vec<_> = declared.difference(&printed).collect();
        assert_eq!(missing, vec![&"core.window_ms_p95"], "{}", w.name());
    }
    assert_eq!(digests(&stdout).len(), Workload::ALL.len());
}

#[test]
fn an_exported_thread_count_does_not_reach_the_children() {
    let run = |env: &[(&str, &str)]| {
        let args = [
            "--workload",
            "paper_calm",
            "--workload",
            "tango_full",
            "--horizon-ms",
            "300",
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ];
        let (ok, stdout) = bench(&args, env);
        assert!(ok, "{stdout}");
        let stamp = stdout.lines().next().expect("a stamp line");
        assert!(stamp.contains(" threads=1 "), "{stamp}");
        digests(&stdout)
    };
    let pinned = run(&[("TANGO_THREADS", "1")]);
    assert_eq!(pinned.len(), 2);
    assert_eq!(run(&[("TANGO_THREADS", "4")]), pinned);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--threads", "2"],
        &["--bogus"],
    ] {
        let (ok, stdout) = bench(args, &[]);
        assert!(!ok);
        assert!(stdout.is_empty(), "{stdout}");
    }
}
