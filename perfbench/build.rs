//! Records the codegen flags this binary was compiled with, so every result
//! says which host tuning produced it (`.cargo/config.toml` pins
//! `target-cpu=native`, which makes numbers host-specific).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
