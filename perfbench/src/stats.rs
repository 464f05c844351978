//! Order statistics and process resource usage.

/// A percentile read from exact samples, with its support.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Percentile {
    pub value: u64,
    /// Samples the percentile was taken from.
    pub samples: usize,
    /// Samples strictly ranked above it.
    pub beyond: usize,
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// The `num/den` percentile of `sorted` (ascending) by the nearest-rank
/// rule: the sample at 1-based rank `ceil(num·n/den)`. Integer
/// arithmetic, so p99.9 of 10 000 samples is rank 9 990 exactly.
pub fn percentile(sorted: &[u64], num: u64, den: u64) -> Option<Percentile> {
    assert!(num <= den && den > 0, "percentile {num}/{den} out of range");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((num as u128 * n as u128).div_ceil(den as u128) as usize).max(1);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// [`percentile`] that refuses a tail fewer than [`MIN_BEYOND`] samples
/// support.
pub fn supported_percentile(sorted: &[u64], num: u64, den: u64) -> Result<Percentile, String> {
    match percentile(sorted, num, den) {
        Some(p) if p.beyond >= MIN_BEYOND || num * 2 <= den => Ok(p),
        Some(p) => Err(format!(
            "p{num}/{den} has {} samples beyond it (< {MIN_BEYOND}) out of {}",
            p.beyond, p.samples
        )),
        None => Err(format!("p{num}/{den} of an empty sample")),
    }
}

/// Median of a non-empty list (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process-wide resource usage (all threads, live and joined).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size, bytes.
    pub max_rss_bytes: u64,
    /// Voluntary context switches (blocking waits).
    pub vol_csw: u64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage with the 64-bit Linux layout");

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss_kb: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

pub fn usage() -> Usage {
    let mut u = std::mem::MaybeUninit::<RUsage>::zeroed();
    // SAFETY: `u` is a writable, properly aligned `struct rusage` of the
    // 64-bit Linux layout (checked by the cfg above); getrusage only
    // writes into it, and zeroed memory is a valid value of every field.
    let rc = unsafe { getrusage(RUSAGE_SELF, u.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // SAFETY: zero-initialised and then filled by getrusage.
    let u = unsafe { u.assume_init() };
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&u.utime) + secs(&u.stime),
        max_rss_bytes: u.maxrss_kb as u64 * 1024,
        vol_csw: u.nvcsw as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_integers() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 1, 2).unwrap().value, 500);
        assert_eq!(percentile(&v, 99, 100).unwrap().value, 990);
        let p = percentile(&v, 999, 1000).unwrap();
        assert_eq!((p.value, p.beyond, p.samples), (999, 1, 1000));
        assert_eq!(percentile(&v, 1, 1).unwrap().value, 1000);
        assert_eq!(percentile(&v, 0, 1).unwrap().value, 1, "rank is at least 1");
        assert_eq!(percentile(&[7], 999, 1000).unwrap().value, 7);
        assert_eq!(percentile(&[], 1, 2), None);
    }

    #[test]
    fn rank_is_exact_where_floating_point_is_not() {
        // 0.999 × 10 000 is 9990.000000000002 in f64, whose ceiling would
        // skip a rank.
        let v: Vec<u64> = (1..=10_000).collect();
        let p = percentile(&v, 999, 1000).unwrap();
        assert_eq!((p.value, p.beyond), (9990, 10));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=10_000).collect();
        assert!(supported_percentile(&v, 999, 1000).is_ok());
        let v: Vec<u64> = (1..=9_999).collect();
        let err = supported_percentile(&v, 999, 1000).unwrap_err();
        assert!(err.contains("< 10"), "{err}");
        // The median needs no tail support.
        assert_eq!(supported_percentile(&[1, 2, 3], 1, 2).unwrap().value, 2);
        assert!(supported_percentile(&[], 1, 2).is_err());
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn usage_reads_the_process() {
        let u = usage();
        assert!(u.max_rss_bytes > 0);
        assert!(u.cpu_s >= 0.0);
    }
}
