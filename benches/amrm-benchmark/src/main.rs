//! `amrm-benchmark`: the end-to-end benchmark, on the system allocator.

fn main() -> std::process::ExitCode {
    amrm_benchmark::cli::main()
}
