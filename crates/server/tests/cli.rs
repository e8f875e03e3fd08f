//! Command-line validation of the `serve` binary: an unknown or retired `--mode`
//! prints usage and exits 2 for every `--runtime`, before any run starts.

use std::process::Command;

fn serve_exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("spawn serve")
        .status
        .code()
}

#[test]
fn retired_and_unknown_modes_exit_with_usage() {
    for args in [
        &["--mode", "global"][..],
        &["--mode", "both"],
        &["--runtime", "stw", "--mode", "bogus"],
    ] {
        assert_eq!(serve_exit_code(args), Some(2), "serve {args:?}");
    }
}
