//! Exact order statistics over raw samples.
//!
//! Latency percentiles are read from the sorted nanosecond samples
//! themselves, never from a bucketed histogram: a bucket boundary moves a
//! percentile by a whole bucket width between identical runs.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `pct` percent of all samples at or below it (rank
/// `ceil(pct · n / 100)`, computed in integers so no rounding can shift it).
pub fn percentile(sorted: &[u64], pct: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile out of range");
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100);
    sorted[(rank.max(1) - 1) as usize]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The process's peak resident set size (`VmHWM`) in MiB, read from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The workload's set-up time in s. `once` builds one instance and
/// returns the seconds its set-up took (tear-down untimed) or a failed
/// check. It runs `reps` times on each of two threads at once, so set-up
/// is timed with both CPUs busy, as in the measured section (on a shared
/// 2-vCPU host a lone thread's timing moved by a third between runs). The
/// result is the mean of the two threads' median set-up times; failed
/// checks are returned.
pub fn setup_seconds(
    reps: usize,
    once: impl Fn() -> Result<f64, String> + Sync,
) -> (f64, Vec<String>) {
    let once = &once;
    let per_thread: Vec<(f64, Vec<String>)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut times = Vec::with_capacity(reps);
                    let mut errors = Vec::new();
                    for _ in 0..reps {
                        match once() {
                            Ok(t) => times.push(t),
                            Err(e) => errors.push(e),
                        }
                    }
                    let m = if times.is_empty() {
                        0.0
                    } else {
                        median(&times)
                    };
                    (m, errors)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("set-up thread panicked"))
            .collect()
    });
    let mean = per_thread.iter().map(|(m, _)| m).sum::<f64>() / per_thread.len() as f64;
    (mean, per_thread.into_iter().flat_map(|(_, e)| e).collect())
}

/// SplitMix64 finalizer: derives independent stream seeds from the run
/// seed and a stream label.
pub fn mix(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Latencies below this many ns are counted in a dense table; the rare
/// slower ones are kept as raw samples.
const DENSE_NS: usize = 1 << 16;

/// Exact op latencies of a whole measured section, pooled over its
/// units and workers. Samples are buffered per unit and folded here as
/// counts per nanosecond value, so memory is a fixed table (plus the rare
/// samples beyond it) whatever the run length, and a percentile is the
/// run's own nearest-rank figure over every sample.
pub struct Latencies {
    dense: Vec<u32>,
    slow: Vec<u64>,
    pub samples: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            dense: vec![0; DENSE_NS],
            slow: Vec::new(),
            samples: 0,
        }
    }
}

impl Latencies {
    /// Folds a unit's buffered samples in and clears the buffer.
    pub fn fold(&mut self, buf: &mut Vec<u64>) {
        for &ns in buf.iter() {
            match self.dense.get_mut(ns as usize) {
                Some(n) => *n += 1,
                None => self.slow.push(ns),
            }
        }
        self.samples += buf.len() as u64;
        buf.clear();
    }

    pub fn merge(&mut self, o: &Latencies) {
        for (n, &m) in self.dense.iter_mut().zip(&o.dense) {
            *n += m;
        }
        self.slow.extend(&o.slow);
        self.samples += o.samples;
    }

    /// Nearest-rank percentile over every sample, as [`percentile`] gives
    /// it on the sorted samples; 0 with no samples.
    pub fn percentile(&self, pct: u64) -> u64 {
        assert!((1..=100).contains(&pct), "percentile out of range");
        if self.samples == 0 {
            return 0;
        }
        let rank = (pct * self.samples).div_ceil(100).max(1);
        let mut seen = 0;
        for (ns, &n) in self.dense.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow[(rank - seen - 1) as usize]
    }
}
