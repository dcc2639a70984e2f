//! Order statistics over run samples, and the `/proc/self/status` reader
//! behind the memory metrics.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile of `values`, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads printed here match the ones a reader recomputes. A
/// single sample is its own quartiles. `None` for an empty sample.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((sorted[0], sorted[0]));
    }
    // Python's clamp can push `j` past `i·m/4`, so `delta` may fall
    // outside 0..4 and the "interpolation" extrapolates; keep it signed.
    let cut = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// regression bound is compared against. 0 for a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    Some(if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Reads one `kB` field (`VmRSS`, `VmHWM`, …) out of the text of a
/// `/proc/<pid>/status` file, in bytes.
pub fn status_field_bytes(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let kib: u64 = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB") && parts.next().is_none()).then_some(kib * 1024)
    })
}

/// One `kB` field of this process's `/proc/self/status`, in bytes; `None`
/// where the file or the field does not exist.
pub fn self_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field_bytes(&status, field)
}

/// Bytes per MiB, the unit every memory metric is reported in.
pub const MIB: f64 = 1024.0 * 1024.0;
