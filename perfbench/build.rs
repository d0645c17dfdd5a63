//! Records the toolchain and source revision for the host record every
//! result is printed with.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git when the checkout itself carries git metadata, so the
    // lookup never wanders into an enclosing repository.
    let git_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = if git_dir.exists() {
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        output_of("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown (no git metadata)".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
