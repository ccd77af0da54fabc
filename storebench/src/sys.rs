//! Process-level readings (CPU time, peak memory) and small statistics helpers.

use legostore_types::ProtocolKind;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed so far by every thread of this process, live and
/// exited, at nanosecond resolution (`/proc` tick counts would quantize a short round's
/// CPU per op to steps of several percent).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration of the call,
    // and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Kernel quantile estimate (Sheather and Marron, Gaussian kernel) of `q` in `[0, 1]`:
/// a weighted mean of the order statistics around rank `q·n`, with a bandwidth of
/// `sqrt(q(1−q)/n)` in rank space (the spread of the sample quantile itself); 0 when
/// empty. Modeled latencies cluster on a few values, so a plain order statistic jumps
/// from one cluster to the next when their weights shift by a fraction of a percent;
/// this estimate moves smoothly instead.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let nf = n as f64;
    let h = (q * (1.0 - q) / nf).sqrt().max(0.5 / nf);
    let lo = (((q - 6.0 * h) * nf).floor().max(0.0) as usize).min(n - 1);
    let hi = (((q + 6.0 * h) * nf).ceil() as usize).clamp(lo + 1, n);
    let (mut num, mut den) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate().take(hi).skip(lo) {
        let z = ((i as f64 + 0.5) / nf - q) / h;
        let w = (-0.5 * z * z).exp();
        num += w * *x as f64;
        den += w;
    }
    num / den
}

/// Reconfiguration durations split by direction: the protocol (ABD, CAS) the key
/// moved from.
///
/// The two directions are different transfers with their own durations, and in a
/// workload that flips keys both ways each holds about half the samples, so a median
/// over the pooled samples would sit on the boundary between them.
#[derive(Debug, Default)]
pub struct ByDirection([Vec<u64>; 2]);

impl ByDirection {
    pub fn push(&mut self, from: ProtocolKind, ns: u64) {
        self.0[from as usize].push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn extend(&mut self, other: ByDirection) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            mine.extend(theirs);
        }
    }

    /// [`quantile`] 0.5 of each direction that ran, averaged over those directions.
    pub fn mean_median(&self) -> f64 {
        let ran: Vec<&Vec<u64>> = self.0.iter().filter(|v| !v.is_empty()).collect();
        if ran.is_empty() {
            return 0.0;
        }
        ran.iter().map(|v| quantile(v, 0.5)).sum::<f64>() / ran.len() as f64
    }
}

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_around_the_rank() {
        let v: Vec<u64> = (1..=1000).rev().collect();
        assert!((quantile(&v, 0.5) - 500.5).abs() < 0.5);
        assert!((quantile(&v, 0.99) - 990.5).abs() < 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
    }

    #[test]
    fn quantile_moves_smoothly_between_clusters() {
        // Two clusters whose boundary sits near the median: shifting 0.2% of the weight
        // moves a plain order statistic from 100 to 150, the estimate only slightly.
        let mk = |low: usize| -> Vec<u64> {
            (0..10_000)
                .map(|i| if i < low { 100 } else { 150 })
                .collect()
        };
        let (a, b) = (quantile(&mk(4_990), 0.5), quantile(&mk(5_010), 0.5));
        assert!(a > 100.0 && b < 150.0 && (a - b).abs() < 10.0, "{a} {b}");
    }

    #[test]
    fn directions_average_their_medians() {
        let mut d = ByDirection::default();
        for _ in 0..2000 {
            d.push(ProtocolKind::Abd, 100);
        }
        for _ in 0..10 {
            d.push(ProtocolKind::Cas, 500);
        }
        // Each direction counts once, whatever its share: (100 + 500) / 2.
        assert!((d.mean_median() - 300.0).abs() < 1e-9);
        assert_eq!(d.len(), 2010);
        assert_eq!(ByDirection::default().mean_median(), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..3_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i * i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
