//! The `llmms` binary rejects flags it does not know instead of starting
//! with defaults.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn llmms(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_llmms"))
        .args(args)
        .output()
        .expect("run llmms")
}

/// Exit code 2, the complaint on stderr, the usage text on stdout.
fn assert_rejected(args: &[&str], complaint: &str) {
    let out = llmms(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    assert!(stdout.contains("USAGE:"), "{args:?}: {stdout}");
}

#[test]
fn serve_rejects_a_misspelt_flag() {
    assert_rejected(
        &["serve", "--edge-max-cons", "10"],
        "unknown flag --edge-max-cons",
    );
}

#[test]
fn serve_rejects_a_flag_without_its_value() {
    assert_rejected(
        &["serve", "--addr", "127.0.0.1:0", "--max-in-flight"],
        "--max-in-flight expects a value",
    );
    assert_rejected(
        &["serve", "--max-in-flight", "--addr", "127.0.0.1:0"],
        "--max-in-flight expects a value",
    );
}

#[test]
fn serve_rejects_the_removed_transport_flag() {
    assert_rejected(
        &["serve", "--transport", "threads"],
        "unknown flag --transport",
    );
}

#[test]
fn the_other_commands_share_the_check() {
    assert_rejected(&["ask", "Are bats blind?", "--budgt", "64"], "unknown flag");
    assert_rejected(&["eval", "--items"], "--items expects a value");
    assert_rejected(
        &["dataset", "--out", "x.json", "--sede", "1"],
        "unknown flag",
    );
}

#[test]
fn serve_accepts_its_documented_flags() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_llmms"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--tenant-quota",
            "1000:1000:64",
            "--max-in-flight",
            "32",
            "--edge-max-conns",
            "100",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn llmms serve");
    let mut first_line = String::new();
    let read =
        BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut first_line);
    child.kill().expect("kill llmms serve");
    child.wait().expect("reap llmms serve");
    read.expect("read stdout");
    assert!(
        first_line.starts_with("llmms serving on http://127.0.0.1:"),
        "{first_line:?}"
    );
}
