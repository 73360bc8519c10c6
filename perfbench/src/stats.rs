//! Measurement helpers: medians, nearest-rank percentiles, geometric
//! means, the host clock, the process's peak resident set, and the seeded
//! generators every workload draws its inputs from.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`; `0.0` when empty.
pub fn minimum(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile `q` in `(0, 1]` of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Geometric mean of positive values; `0.0` when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or `0.0` when the base is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU nanoseconds of the calling thread so far; `None` where the
/// clock is unavailable.
fn thread_cpu_ns() -> Option<u64> {
    if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        return None;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux (checked above), and `clock_gettime` writes only
    // through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Host-time stopwatch of the benchmark's single thread. It counts the
/// thread's on-CPU time, so load that other processes put on the machine
/// does not count; where the kernel does not expose that, it falls back to
/// wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct HostTimer {
    cpu_ns: Option<u64>,
    wall: std::time::Instant,
}

impl HostTimer {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        HostTimer {
            cpu_ns: thread_cpu_ns(),
            wall: std::time::Instant::now(),
        }
    }

    /// Host seconds since [`start`](Self::start).
    pub fn secs(&self) -> f64 {
        match (self.cpu_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 * 1e-9,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// splitmix64: the seeded stream every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so the arrival,
    /// key and fault draws of one workload do not share values.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Zipf(`s`) sampler over ranks `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` with weight `1 / (rank + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank drawn from `rng`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn host_timer_counts_busy_time() {
        let t = HostTimer::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(x > 0);
        assert!(t.secs() > 0.0);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(16, 1.1);
        let mut rng = Rng::new(7, 1);
        let mut counts = [0usize; 16];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[3] && counts[3] > counts[15]);
    }
}
