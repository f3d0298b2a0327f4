//! A fixed-memory log-linear histogram of nanosecond samples.
//!
//! Values below 128 ns get one bucket each. Above that, every power of two
//! is split into 64 equal buckets, so a bucket is at most 1/64 of its lower
//! edge wide (≤ 1.6 % error, ≤ 0.8 % when read at the midpoint). The whole
//! `u64` range fits in 3,776 counters (≈30 KiB), which keeps a
//! 1.5-million-sample run from inflating the peak RSS it also measures.

/// Linear sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this get a bucket each.
const LINEAR: u64 = 2 * SUB;
const BUCKETS: usize = ((64 - SUB_BITS as usize) * SUB as usize) + SUB as usize;

/// Streaming histogram over `u64` nanoseconds.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
        }
    }
}

impl Histogram {
    /// The bucket `value` falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value < LINEAR {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        (shift as u64 * SUB + (value >> shift)) as usize
    }

    /// The `[lower, lower + width)` range of bucket `index`.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < LINEAR {
            return (index, 1);
        }
        let shift = index / SUB - 1;
        ((index - shift * SUB) << shift, 1 << shift)
    }

    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`), read at the midpoint
    /// of the bucket holding it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lower, width) = Self::bucket_range(index);
                return lower as f64 + (width - 1) as f64 / 2.0;
            }
        }
        unreachable!(
            "rank {rank} lies within the {} recorded samples",
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for index in 0..BUCKETS {
            let (lower, width) = Histogram::bucket_range(index);
            assert_eq!(
                lower, next,
                "bucket {index} starts at {lower}, expected {next}"
            );
            assert_eq!(Histogram::bucket_of(lower), index);
            assert_eq!(Histogram::bucket_of(lower + (width - 1)), index);
            if lower >= LINEAR {
                assert!(width * SUB <= lower, "bucket {index} is wider than 1/{SUB}");
            }
            next = lower.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }
}
