//! The untraced binary: end-to-end runs (`--trace 0`), the ledger and the
//! A/A comparison. No counting allocator, telemetry disabled, no spans.

fn main() -> std::process::ExitCode {
    twig_perfbench::main_with(false)
}
