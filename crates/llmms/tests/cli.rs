//! The `llmms` binary rejects flags it does not know instead of starting
//! with defaults, and `serve`'s flags, its usage text and README agree.

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
    assert_rejected(
        &["serve", "--sched-shed-depth", "64"],
        "unknown flag --sched-shed-depth",
    );
}

#[test]
fn serve_rejects_malformed_sched_shares() {
    for spec in ["a:0", ":3", "a"] {
        let out = llmms(&["serve", "--addr", "127.0.0.1:0", "--sched-shares", spec]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec:?}: {stderr}");
        assert!(
            stderr.contains("--sched-shares expects TENANT:WEIGHT"),
            "{spec:?}: {stderr}"
        );
    }
}

/// The `--flag` tokens in `text`.
fn flags_in(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| {
            word.starts_with("--") && word[2..].starts_with(|c: char| c.is_ascii_lowercase())
        })
        .collect()
}

#[test]
fn serve_flags_usage_and_readme_agree() {
    // `SERVE_FLAGS` as the binary's source declares it.
    let source = include_str!("../src/bin/llmms.rs");
    let start = source
        .find("const SERVE_FLAGS")
        .expect("SERVE_FLAGS is declared");
    let end = start + source[start..].find("];").expect("SERVE_FLAGS ends");
    let flags = flags_in(&source[start..end]);
    assert!(!flags.is_empty());
    let usage = String::from_utf8(llmms(&["help"]).stdout).expect("utf-8 usage");
    let serve_usage = &usage[usage.find("llmms serve").expect("serve usage")..];
    let serve_usage = &serve_usage[..serve_usage.find("llmms models").expect("models usage")];
    let readme = include_str!("../../../README.md");
    let readme_flags = flags_in(readme);
    for flag in &flags {
        assert!(flags_in(serve_usage).contains(flag), "usage lacks {flag}");
        assert!(readme_flags.contains(flag), "README.md lacks {flag}");
    }
    for flag in flags_in(serve_usage) {
        assert!(
            flags.contains(&flag),
            "usage names unknown serve flag {flag}"
        );
    }
    // Every `serve --flag ...` in README's code, inline or fenced.
    for (i, code) in readme.split('`').enumerate().filter(|(i, _)| i % 2 == 1) {
        for line in code.lines() {
            if let Some(at) = line.find("serve --") {
                for flag in flags_in(&line[at..]) {
                    assert!(
                        flags.contains(&flag),
                        "README.md (code span {i}) names unknown serve flag {flag}: {line:?}"
                    );
                }
            }
        }
    }
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
            "--sched-shares",
            "a:3,b:1",
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
