//! Order statistics, hashing, timing loops and process readings shared by
//! the workloads and the layer probes.

use std::time::Instant;

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

/// Summarises `values`. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones computed over the JSON results.
/// An empty sample summarises to zeros.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n,
        };
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return Summary {
            median,
            q1: median,
            q3: median,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// Incremental 64-bit FNV-1a, the hash every output check in this
/// benchmark uses (the same function as `mhg_ckpt::fnv1a64`).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds the little-endian bytes of `x`.
    pub fn u32(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds the bit pattern of `x`.
    pub fn f32(&mut self, x: f32) {
        self.u32(x.to_bits());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Runs `op` repeatedly for about `seconds` of wall clock and returns what
/// each call reported (its own measurement).
///
/// At least `min_ops` calls run. After that, the loop stops as soon as one
/// more call would probably end more than half a call past the deadline,
/// so a run measures `seconds` ± half an op whatever the op's length.
pub fn repeat_for(seconds: f64, min_ops: usize, mut op: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut reported = Vec::new();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        reported.push(op());
        walls.push(t.elapsed().as_secs_f64());
        let typical = summarize(&walls).median;
        let elapsed = start.elapsed().as_secs_f64();
        if reported.len() >= min_ops.max(1) && elapsed + typical / 2.0 >= seconds {
            return reported;
        }
    }
}

/// Per-call cost of `f` in nanoseconds: a warm-up call, then repeats of a
/// batch of calls sized to about 20 µs (so the clock's own cost stays out
/// of sub-microsecond readings) until `budget_s` has passed and at least
/// five batches ran. Returns the summary over batches and the total call
/// count.
pub fn per_call_ns(budget_s: f64, mut f: impl FnMut()) -> (Summary, usize) {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64();
    let batch = ((20e-6 / once.max(1e-9)) as usize).clamp(1, 100_000);
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    let calls = per_call.len() * batch;
    (summarize(&per_call), calls)
}

/// Nanoseconds since `t`, saturating.
pub fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn fnv_matches_ckpt_hash() {
        let mut h = Fnv::default();
        h.u32(0x0403_0201);
        assert_eq!(h.finish(), mhg_ckpt::fnv1a64(&[1, 2, 3, 4]));
    }
}
