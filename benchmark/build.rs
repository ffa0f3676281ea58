//! Records the compiler version for the machine fingerprint, so the
//! running benchmark does not have to spawn `rustc`.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=LMBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
