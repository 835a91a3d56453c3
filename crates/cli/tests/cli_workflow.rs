//! Black-box test of the `gogreen` binary: the full generate → mine →
//! compress → recycle → verify workflow through the real CLI surface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_gogreen")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gogreen-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn gogreen")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "gogreen {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn full_workflow_round_trips() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let fp_hi = dir.join("fp_hi.txt");
    let fp_rec = dir.join("fp_rec.txt");
    let fp_scratch = dir.join("fp_scratch.txt");
    let dbs = db.to_str().unwrap();

    let out = run_ok(&["generate", "pumsb", "--scale", "0.01", "-o", dbs]);
    assert!(out.contains("wrote"), "{out}");

    let out = run_ok(&["stats", dbs]);
    assert!(out.contains("tuples"), "{out}");

    run_ok(&["mine", dbs, "--support", "90%", "-o", fp_hi.to_str().unwrap()]);
    let out = run_ok(&["compress", dbs, "--patterns", fp_hi.to_str().unwrap()]);
    assert!(out.contains("ratio"), "{out}");

    run_ok(&[
        "recycle",
        dbs,
        "--patterns",
        fp_hi.to_str().unwrap(),
        "--support",
        "82%",
        "-o",
        fp_rec.to_str().unwrap(),
    ]);
    run_ok(&["mine", dbs, "--support", "82%", "--algo", "fp", "-o", fp_scratch.to_str().unwrap()]);

    // Recycled output must equal the from-scratch output line for line
    // (the format is canonical).
    let a = std::fs::read_to_string(&fp_rec).unwrap();
    let b = std::fs::read_to_string(&fp_scratch).unwrap();
    assert_eq!(a, b, "recycled vs scratch pattern files differ");
    assert!(a.lines().count() > 10);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn constrained_mine_restricts_output() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    let all = dir.join("all.txt");
    let limited = dir.join("limited.txt");
    run_ok(&["mine", dbs, "--support", "90%", "-o", all.to_str().unwrap()]);
    run_ok(&[
        "mine",
        dbs,
        "--support",
        "90%",
        "--max-length",
        "2",
        "-o",
        limited.to_str().unwrap(),
    ]);
    let all_n = std::fs::read_to_string(&all).unwrap().lines().count();
    let lim = std::fs::read_to_string(&limited).unwrap();
    assert!(lim.lines().count() < all_n);
    for line in lim.lines() {
        let items = line.split(':').next().unwrap().split_whitespace().count();
        assert!(items <= 2, "pattern too long: {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_script_drives_repl() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    let mut child = Command::new(bin())
        .args(["session", dbs])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"support 92%\nrun\nsupport 86%\nrun\ntop 3\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("[Fresh]"), "{text}");
    assert!(text.contains("[Recycled]"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    assert!(!run(&["mine"]).status.success());
    assert!(!run(&["mine", "/nonexistent", "--support", "5%"]).status.success());
    assert!(!run(&["frobnicate"]).status.success());
    assert!(run(&["help"]).status.success());
}

#[test]
fn diff_and_condensed_filters() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    let hi = dir.join("hi.txt");
    let lo = dir.join("lo.txt");
    run_ok(&["mine", dbs, "--support", "92%", "-o", hi.to_str().unwrap()]);
    run_ok(&["mine", dbs, "--support", "88%", "-o", lo.to_str().unwrap()]);
    let out = run_ok(&["diff", lo.to_str().unwrap(), hi.to_str().unwrap()]);
    assert!(out.contains("appeared"), "{out}");
    assert!(out.contains("-0 vanished"), "{out}"); // relaxation only adds

    // Maximal output must be a (strict, here) subset of the full set.
    let maximal = dir.join("max.txt");
    run_ok(&[
        "mine",
        dbs,
        "--support",
        "88%",
        "--filter",
        "maximal",
        "-o",
        maximal.to_str().unwrap(),
    ]);
    let full_n = std::fs::read_to_string(&lo).unwrap().lines().count();
    let max_n = std::fs::read_to_string(&maximal).unwrap().lines().count();
    assert!(max_n > 0 && max_n < full_n, "maximal {max_n} vs full {full_n}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn algo_usage_lists_the_engine_keys_and_recycle_runs_vt() {
    let keys = gogreen_core::engine::engine_keys();
    let usage = run_ok(&["help"]);
    for command in ["gogreen mine     <db.txt> --support", "gogreen recycle "] {
        let at = usage.find(command).unwrap_or_else(|| panic!("no {command:?} line in {usage}"));
        let listed = usage[at..].split("--algo ").nth(1).and_then(|s| s.split(']').next());
        assert_eq!(listed, Some(keys.as_str()), "{command}");
    }

    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    let fp_hi = dir.join("fp_hi.txt");
    let fp_vt = dir.join("fp_vt.txt");
    let fp_scratch = dir.join("fp_scratch.txt");
    run_ok(&["generate", "pumsb", "--scale", "0.01", "-o", dbs]);
    run_ok(&["mine", dbs, "--support", "90%", "-o", fp_hi.to_str().unwrap()]);
    let out = run_ok(&[
        "recycle",
        dbs,
        "--patterns",
        fp_hi.to_str().unwrap(),
        "--support",
        "82%",
        "--algo",
        "vt",
        "-o",
        fp_vt.to_str().unwrap(),
    ]);
    assert!(out.contains("[VT-MCP]"), "{out}");
    run_ok(&["mine", dbs, "--support", "82%", "-o", fp_scratch.to_str().unwrap()]);
    let a = std::fs::read_to_string(&fp_vt).unwrap();
    let b = std::fs::read_to_string(&fp_scratch).unwrap();
    assert_eq!(a, b, "recycled vt vs scratch pattern files differ");
    std::fs::remove_dir_all(&dir).ok();
}
