//! Statistics, run metadata and the result line.

use std::fmt::Write as _;
use std::path::Path;

use crate::drive::{CLASS_DENY, CLASS_GET, CLASS_LIST, CLASS_RESUME, CLASS_WRITE};
use crate::trace::{self_times, Name, Span};

/// Nearest-rank percentile of ascending-sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Split (completion time, latency) samples into `n` equal buckets of the
/// window starting at `start_ns`; each bucket's latencies come back sorted.
pub fn buckets(samples: &[(u64, u64)], start_ns: u64, window_ns: u64, n: usize) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); n];
    let width = (window_ns / n as u64).max(1);
    for &(done, latency) in samples {
        let i = (done.saturating_sub(start_ns) / width) as usize;
        out[i.min(n - 1)].push(latency);
    }
    for b in &mut out {
        b.sort_unstable();
    }
    out
}

/// The median across buckets of one per-bucket statistic.
pub fn bucket_median(buckets: &[Vec<u64>], stat: impl Fn(&[u64]) -> f64) -> f64 {
    median_f64(&buckets.iter().map(|b| stat(b)).collect::<Vec<_>>())
}

/// The lower quartile of per-second figures, for metrics where lower is
/// better. Interference from other tenants of a shared machine only adds
/// time, and it comes in episodes of several seconds; the quieter quarter
/// of a run's seconds estimates the program's own cost more repeatably
/// than the median does, while a change to the program moves every second.
pub fn quiet_quartile(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    // Linear interpolation, as Python's statistics.quantiles(method="inclusive").
    let rank = 0.25 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A running mean of nanosecond samples, reported in microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mean {
    pub sum: u64,
    pub n: u64,
}

impl Mean {
    pub fn add(&mut self, v: u64) {
        self.sum += v;
        self.n += 1;
    }

    pub fn us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64 / 1e3
        }
    }
}

/// Per-layer aggregates over the traced requests' spans.
#[derive(Debug, Default)]
pub struct Layers {
    pub proxy_admit: Mean,
    pub proxy_deny: Mean,
    pub server_write: Mean,
    pub server_read: Mean,
    pub store_write: Vec<u64>,
    pub store_get: Mean,
    pub store_list: Mean,
    pub list_items: Mean,
    pub events_since: Mean,
    pub drain: Mean,
    pub dispatch_wait: Mean,
}

pub fn layers(threads: &[Vec<Span>]) -> Layers {
    let mut l = Layers::default();
    for spans in threads {
        let own = self_times(spans);
        for (s, &self_ns) in spans.iter().zip(&own) {
            let class = s.request >> 56;
            let dur = s.duration_ns();
            match s.name {
                Name::Client if class == CLASS_DENY => l.proxy_deny.add(self_ns),
                Name::Client => l.proxy_admit.add(self_ns),
                Name::Server if class == CLASS_WRITE => l.server_write.add(self_ns),
                Name::Server if matches!(class, CLASS_GET | CLASS_LIST | CLASS_RESUME) => {
                    l.server_read.add(self_ns)
                }
                Name::StoreWrite => l.store_write.push(dur),
                Name::StoreGet => l.store_get.add(dur),
                Name::StoreList => {
                    l.store_list.add(dur);
                    l.list_items.add(s.items as u64);
                }
                Name::StoreEventsSince => l.events_since.add(dur),
                Name::WatchDrain => l.drain.add(dur),
                Name::WatchWait => l.dispatch_wait.add(dur),
                _ => {}
            }
        }
    }
    l.store_write.sort_unstable();
    l
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or mean; `None` for single measurements.
    pub samples: Option<u64>,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: Option<u64>) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn samples_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter_map(|m| m.samples.map(|n| format!("{}: {n}", json_str(m.name))))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// CPU time the process's live threads have run, in seconds, summed from
/// each thread's `/proc/self/task/<tid>/schedstat` (nanoseconds on CPU).
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for one second of a
/// 400-writes/s workload.
pub fn cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, when it is a git work tree.
pub fn git_revision(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unavailable".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|r| r.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(root.join(".git/packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unavailable")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unavailable".to_owned()),
    }
}

/// FNV-1a over the program's sources (`crates/**` `.rs` and `Cargo.toml`
/// files, in path order): identifies the code measured when the checkout
/// carries no git metadata.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, files);
                } else if path.extension().is_some_and(|e| e == "rs")
                    || path.file_name().is_some_and(|n| n == "Cargo.toml")
                {
                    files.push(path);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        for byte in rel.bytes().chain(std::fs::read(&file).unwrap_or_default()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}
