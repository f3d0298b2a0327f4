//! Self-timed execution of a dataflow graph on an allocated set of cores.
//!
//! This is the design-time benchmarking substrate that replaces the paper's
//! physical Odroid XU4 measurements: a discrete-event, list-scheduled
//! simulation producing execution time and energy for a given core
//! allocation.

use amrm_platform::{Platform, ResourceVec};

use crate::{DataflowGraph, ProcessId};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Graph iterations executed (the "input size" in firings).
    pub iterations: usize,
    /// Inter-core channel bandwidth in bytes/second.
    pub channel_bandwidth: f64,
    /// Fixed per-transfer latency between distinct cores, in seconds.
    pub channel_latency: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            iterations: 32,
            channel_bandwidth: 2.0e9,
            channel_latency: 5.0e-6,
        }
    }
}

/// Result of simulating one allocation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end execution time in seconds.
    pub makespan: f64,
    /// Busy time per allocated core, in seconds.
    pub busy: Vec<f64>,
    /// Energy consumed by the allocated cores (active + idle), in joules.
    pub energy: f64,
    /// Core-type index of each allocated core.
    pub core_types: Vec<usize>,
    /// The process-to-core placement that was simulated.
    pub placement: Vec<usize>,
}

/// Places processes onto the allocated cores with a longest-processing-time
/// greedy: heaviest process first, each onto the core that finishes it
/// earliest given current load and core speed.
pub fn place(graph: &DataflowGraph, platform: &Platform, allocation: &ResourceVec) -> Vec<usize> {
    let cores = expand_cores(platform, allocation);
    assert!(
        !cores.is_empty(),
        "allocation must contain at least one core"
    );
    let rates: Vec<f64> = cores
        .iter()
        .map(|&k| platform.core_type(k).effective_rate_hz())
        .collect();

    let mut order: Vec<usize> = (0..graph.num_processes()).collect();
    order.sort_by(|&a, &b| {
        graph.processes()[b]
            .work_cycles()
            .total_cmp(&graph.processes()[a].work_cycles())
    });

    let mut load = vec![0.0f64; cores.len()];
    let mut placement = vec![0usize; graph.num_processes()];
    for p in order {
        let work = graph.processes()[p].work_cycles();
        let best = (0..cores.len())
            .min_by(|&a, &b| (load[a] + work / rates[a]).total_cmp(&(load[b] + work / rates[b])))
            .expect("non-empty core list");
        placement[p] = best;
        load[best] += work / rates[best];
    }
    placement
}

/// Expands an allocation vector into a list of core-type indices, one per
/// allocated core.
pub fn expand_cores(platform: &Platform, allocation: &ResourceVec) -> Vec<usize> {
    assert_eq!(
        allocation.num_types(),
        platform.num_types(),
        "allocation arity must match platform"
    );
    assert!(
        allocation.fits_within(platform.counts()),
        "allocation exceeds platform resources"
    );
    let mut cores = Vec::new();
    for (k, n) in allocation.iter().enumerate() {
        for _ in 0..n {
            cores.push(k);
        }
    }
    cores
}

/// Simulates `config.iterations` iterations of `graph` on `allocation`.
///
/// Execution is self-timed: a firing starts once its predecessors' firings
/// of the same iteration have finished (plus channel delay when crossing
/// cores), its own previous firing has finished, and its core is free.
/// Consecutive iterations pipeline naturally across cores.
///
/// # Panics
///
/// Panics if the graph is cyclic or the allocation is empty/oversized.
pub fn simulate(
    graph: &DataflowGraph,
    platform: &Platform,
    allocation: &ResourceVec,
    config: &SimConfig,
) -> SimResult {
    let topo = graph
        .topological_order()
        .expect("dataflow graph must be acyclic");
    let placement = place(graph, platform, allocation);
    simulate_with_placement(graph, platform, allocation, &placement, &topo, config)
}

/// Simulates with an explicit process-to-core placement (exposed for
/// placement-policy experiments).
pub fn simulate_with_placement(
    graph: &DataflowGraph,
    platform: &Platform,
    allocation: &ResourceVec,
    placement: &[usize],
    topo: &[ProcessId],
    config: &SimConfig,
) -> SimResult {
    assert!(config.iterations > 0, "at least one iteration required");
    let cores = expand_cores(platform, allocation);
    let rates: Vec<f64> = cores
        .iter()
        .map(|&k| platform.core_type(k).effective_rate_hz())
        .collect();

    // Firing table in `topo` order: each process's core, its execution
    // time, and the range of its input channels in `inputs`, stored as
    // (source, delay) pairs with a delay of 0.0 when both ends share a
    // core.
    let mut firings = Vec::with_capacity(topo.len());
    let mut inputs: Vec<(usize, f64)> = Vec::new();
    for &p in topo {
        let core = placement[p.0];
        let first = inputs.len();
        for ch in graph.predecessors(p) {
            let delay = if placement[ch.src.0] == core {
                0.0
            } else {
                config.channel_latency + ch.bytes / config.channel_bandwidth
            };
            inputs.push((ch.src.0, delay));
        }
        let exec = graph.processes()[p.0].work_cycles() / rates[core];
        firings.push((p.0, core, exec, first, inputs.len()));
    }

    let mut core_free = vec![0.0f64; cores.len()];
    let mut busy = vec![0.0f64; cores.len()];
    // Finish time of each process's latest firing: a process's own slot
    // holds its previous iteration until it fires, its predecessors' slots
    // already hold the current one.
    let mut finish = vec![0.0f64; graph.num_processes()];

    let mut makespan: f64 = 0.0;
    for _iter in 0..config.iterations {
        for &(p, core, exec, first, last) in &firings {
            let mut ready = finish[p].max(core_free[core]);
            for &(src, delay) in &inputs[first..last] {
                ready = ready.max(finish[src] + delay);
            }
            let end = ready + exec;
            finish[p] = end;
            core_free[core] = end;
            busy[core] += exec;
            makespan = makespan.max(end);
        }
    }

    let mut energy = 0.0;
    for (c, &k) in cores.iter().enumerate() {
        let t = platform.core_type(k);
        energy += t.active_power_w() * busy[c] + t.idle_power_w() * (makespan - busy[c]);
    }

    SimResult {
        makespan,
        busy,
        energy,
        core_types: cores,
        placement: placement.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(stages: usize, work: f64) -> DataflowGraph {
        let mut g = DataflowGraph::new("chain");
        let mut prev = None;
        for i in 0..stages {
            let p = g.add_process(format!("s{i}"), work);
            if let Some(q) = prev {
                g.connect(q, p, 4096.0);
            }
            prev = Some(p);
        }
        g
    }

    #[test]
    fn single_core_makespan_is_serial_work() {
        let g = chain(4, 1.5e9);
        let platform = Platform::odroid_xu4();
        let cfg = SimConfig {
            iterations: 10,
            ..SimConfig::default()
        };
        let r = simulate(&g, &platform, &ResourceVec::from_slice(&[1, 0]), &cfg);
        // 4 × 1.5e9 cycles @ 1.5 GHz = 4 s per iteration, 10 iterations.
        assert!((r.makespan - 40.0).abs() < 1e-6);
        assert!((r.busy[0] - 40.0).abs() < 1e-6);
    }

    #[test]
    fn pipeline_speeds_up_with_more_cores() {
        let g = chain(4, 1.5e9);
        let platform = Platform::odroid_xu4();
        let cfg = SimConfig {
            iterations: 16,
            ..SimConfig::default()
        };
        let one = simulate(&g, &platform, &ResourceVec::from_slice(&[1, 0]), &cfg);
        let four = simulate(&g, &platform, &ResourceVec::from_slice(&[4, 0]), &cfg);
        // A 4-stage pipeline on 4 cores approaches 4× throughput.
        assert!(four.makespan < one.makespan / 2.5);
    }

    #[test]
    fn big_core_is_faster_and_hungrier() {
        let g = chain(2, 2.0e9);
        let platform = Platform::odroid_xu4();
        let cfg = SimConfig::default();
        let little = simulate(&g, &platform, &ResourceVec::from_slice(&[1, 0]), &cfg);
        let big = simulate(&g, &platform, &ResourceVec::from_slice(&[0, 1]), &cfg);
        assert!(big.makespan < little.makespan);
        assert!(big.energy > little.energy);
    }

    #[test]
    fn energy_accounts_idle_cores() {
        // Two cores, but a serial chain keeps one mostly idle: energy must
        // exceed the single-core energy at equal makespan contributions.
        let g = chain(3, 1.0e9);
        let platform = Platform::odroid_xu4();
        let cfg = SimConfig {
            iterations: 8,
            ..SimConfig::default()
        };
        let one = simulate(&g, &platform, &ResourceVec::from_slice(&[1, 0]), &cfg);
        let two = simulate(&g, &platform, &ResourceVec::from_slice(&[2, 0]), &cfg);
        let active_energy_one = one.busy[0] * platform.core_type(0).active_power_w();
        assert!(two.energy > active_energy_one * 0.99 - 1e-9 || two.energy > one.energy * 0.5);
    }

    #[test]
    fn communication_penalty_applies_across_cores() {
        let mut g = DataflowGraph::new("comm");
        let a = g.add_process("a", 1.0e9);
        let b = g.add_process("b", 1.0e9);
        g.connect(a, b, 2.0e9); // heavy payload: 1 s at 2 GB/s
        let platform = Platform::odroid_xu4();
        let cfg = SimConfig {
            iterations: 1,
            ..SimConfig::default()
        };
        let local = simulate(&g, &platform, &ResourceVec::from_slice(&[1, 0]), &cfg);
        let split = simulate(&g, &platform, &ResourceVec::from_slice(&[2, 0]), &cfg);
        // Local: 2/1.5 s serial; split pays ~1 s of transfer.
        assert!(split.makespan > local.makespan);
    }

    #[test]
    fn placement_balances_load() {
        let mut g = DataflowGraph::new("par");
        for i in 0..4 {
            g.add_process(format!("p{i}"), 1.0e9);
        }
        let platform = Platform::odroid_xu4();
        let placement = place(&g, &platform, &ResourceVec::from_slice(&[2, 0]));
        let on0 = placement.iter().filter(|&&c| c == 0).count();
        assert_eq!(on0, 2, "LPT must split 4 equal processes 2/2");
    }

    #[test]
    #[should_panic(expected = "allocation exceeds platform")]
    fn oversized_allocation_rejected() {
        let g = chain(2, 1.0e9);
        let platform = Platform::odroid_xu4();
        simulate(
            &g,
            &platform,
            &ResourceVec::from_slice(&[5, 0]),
            &SimConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_allocation_rejected() {
        let g = chain(2, 1.0e9);
        let platform = Platform::odroid_xu4();
        simulate(
            &g,
            &platform,
            &ResourceVec::from_slice(&[0, 0]),
            &SimConfig::default(),
        );
    }
}
