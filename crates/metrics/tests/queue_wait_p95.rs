//! Property test of the cached queue-wait p95: after every recorded wait,
//! the snapshot must report exactly the percentile of the waits the ring
//! retains (the last [`Telemetry::SAMPLE_CAPACITY`]), even though the
//! recorder skips the re-sort when a full ring evicts a sample equal to
//! the one pushed.

use std::collections::VecDeque;

use amrm_metrics::{percentile, Telemetry};
use proptest::prelude::*;

/// Waits are drawn from this small set, so equal samples repeat and a
/// wrapped ring often evicts a sample equal to the pushed one. `-1.0`
/// clamps to `0.0`.
const WAITS: [f64; 5] = [-1.0, 0.0, 0.25, 1.0, 3.0];

/// The wait for a draw in `0..100`, over the first `distinct` entries of
/// [`WAITS`]. The two largest waits each take 5 % of draws, so the p95 of
/// a window moves between them as the ring wraps.
fn wait(pick: usize, distinct: usize) -> f64 {
    let bucket = match pick {
        0..=44 => 0,
        45..=79 => 1,
        80..=89 => 2,
        90..=94 => 3,
        _ => 4,
    };
    WAITS[bucket.min(distinct - 1)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn snapshot_p95_matches_the_percentile_of_the_retained_waits(
        distinct in 1usize..=5,
        picks in prop::collection::vec(
            0usize..100,
            2 * Telemetry::SAMPLE_CAPACITY + 1..=3 * Telemetry::SAMPLE_CAPACITY,
        ),
    ) {
        let mut telemetry = Telemetry::new();
        let mut retained: VecDeque<f64> = VecDeque::new();
        for pick in picks {
            let wait = wait(pick, distinct);
            telemetry.record_queue_wait(wait);
            if retained.len() == Telemetry::SAMPLE_CAPACITY {
                retained.pop_front();
            }
            retained.push_back(wait.max(0.0));
            let expected = percentile(retained.make_contiguous(), 95.0).unwrap_or(0.0);
            let snapshot = telemetry.snapshot(0.0, 0, None, None);
            prop_assert_eq!(snapshot.queue_wait_p95.to_bits(), expected.to_bits());
        }
    }
}
