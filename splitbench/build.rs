//! Records the compiler version and the `target-cpu` of this build, so
//! every result names the toolchain and code generation it came from.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    // Flags arrive separated by 0x1f; `-C target-cpu=x` may be one
    // flag or two.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .rev()
        .find_map(|f| f.trim_start_matches("-C").strip_prefix("target-cpu="))
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=SPLITBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SPLITBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
