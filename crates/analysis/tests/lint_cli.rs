//! Exit-code contract of the `lint` binary: clean on the real repo,
//! non-zero on a fixture with a missing `// SAFETY:` comment.

use std::path::PathBuf;
use std::process::Command;

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lint"))
}

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn repo_is_lint_clean() {
    // No args: the binary resolves the workspace root itself.
    let out = lint_bin().output().expect("run lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "lint must exit 0 on the repo; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("files clean"),
        "unexpected output: {stderr}"
    );
}

#[test]
fn missing_safety_fixture_fails() {
    let fixture = crate_dir().join("tests/fixtures/missing_safety.rs");
    assert!(fixture.exists(), "fixture missing at {}", fixture.display());
    let out = lint_bin().arg(&fixture).output().expect("run lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "lint must fail on the fixture; stderr:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "violations exit with code 1");
    assert!(
        stderr.contains("SAFETY"),
        "diagnostic should name the missing SAFETY comment: {stderr}"
    );
}

#[test]
fn forget_guard_fixture_fails() {
    let fixture = crate_dir().join("tests/fixtures/forget_guard.rs");
    assert!(fixture.exists(), "fixture missing at {}", fixture.display());
    let out = lint_bin().arg(&fixture).output().expect("run lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "lint must fail on the fixture; stderr:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "violations exit with code 1");
    assert!(
        stderr.contains("forget-guard"),
        "diagnostic should name the forget-guard rule: {stderr}"
    );
}

#[test]
fn unbounded_queue_fixture_fails() {
    // The fixture sits under a crates/service/ subpath so rule 8's path
    // scoping applies to it when linted directly.
    let fixture = crate_dir().join("tests/fixtures/crates/service/unbounded_queue.rs");
    assert!(fixture.exists(), "fixture missing at {}", fixture.display());
    let out = lint_bin().arg(&fixture).output().expect("run lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "lint must fail on the fixture; stderr:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "violations exit with code 1");
    assert!(
        stderr.contains("unbounded-queue"),
        "diagnostic should name the unbounded-queue rule: {stderr}"
    );
}

#[test]
fn raw_comm_fixture_fails() {
    // The fixture sits under a crates/baselines/ subpath so rule 9's
    // outside-the-runtime scoping applies to it when linted directly.
    let fixture = crate_dir().join("tests/fixtures/crates/baselines/raw_comm.rs");
    assert!(fixture.exists(), "fixture missing at {}", fixture.display());
    let out = lint_bin().arg(&fixture).output().expect("run lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "lint must fail on the fixture; stderr:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "violations exit with code 1");
    assert!(
        stderr.contains("raw-comm"),
        "diagnostic should name the raw-comm rule: {stderr}"
    );
}

#[test]
fn fixtures_are_skipped_by_the_directory_walk() {
    // Pointing the binary at the tests/ directory (which contains the
    // fixtures dir) must stay clean: fixtures are excluded from walks.
    let out = lint_bin()
        .arg(crate_dir().join("tests"))
        .output()
        .expect("run lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "tests/ walk must skip fixtures; stderr:\n{stderr}"
    );
}
