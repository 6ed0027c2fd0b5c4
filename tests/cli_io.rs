//! The CLI at the edges of its input and output: a reader that closes
//! stdout early, a JSON file nested deeper than the parser allows, and a
//! malformed one. Each must end in an orderly exit with one clear message,
//! not a panic or an abort.

use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_charon-cli"))
}

/// `charon-cli run … | head -1`: the reader goes away before the run has
/// printed anything, and the CLI must end without a `println!` panic.
#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    let mut child = cli()
        .args(["run", "BS", "--platform", "HMC", "--steps", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn charon-cli");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for charon-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// A 100 000-deep array is a parse error with a message and exit 1, not a
/// stack overflow.
#[test]
fn check_json_rejects_a_too_deep_document() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep.json");
    std::fs::write(&path, "[".repeat(100_000) + &"]".repeat(100_000)).expect("write deep.json");
    let out = cli().arg("check-json").arg(&path).output().expect("run charon-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nested deeper than"), "{stderr}");
}

/// A malformed file is named once and its parse error once: the message
/// says "invalid JSON" a single time, and the exit code is 1.
#[test]
fn check_json_names_a_malformed_file_once() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("malformed.json");
    std::fs::write(&path, "{\"a\": [1, 2,]}").expect("write malformed.json");
    let out = cli().arg("check-json").arg(&path).output().expect("run charon-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.matches("invalid JSON").count(), 1, "{stderr}");
    assert!(stderr.starts_with(&format!("{}: ", path.display())), "{stderr}");
}
