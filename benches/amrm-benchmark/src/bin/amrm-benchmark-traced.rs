//! `amrm-benchmark-traced`: the per-layer passes behind
//! `amrm-benchmark --trace`. It counts allocations, so it lives in a
//! binary of its own and the end-to-end binary keeps the system
//! allocator.

use amrm_metrics::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> std::process::ExitCode {
    amrm_benchmark::cli::main_traced()
}
