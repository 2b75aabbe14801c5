//! Tracked perf-trajectory artifacts: machine-readable scaling curves the
//! benches emit, commit at the repo root (`BENCH_writepath.json`), and
//! compare against across PRs.
//!
//! README tables show a snapshot; the JSON artifact is the **trajectory**:
//! per-thread curves (req/s, events/s, p50/p99) per store backend and
//! traffic mix, stamped with a schema version so CI can detect a committed
//! artifact that predates the current schema. Everything is serialized
//! through `kf_yaml`'s JSON support — no external serializer.
//!
//! Layout (schema version [`BENCH_SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "writepath_scaling",
//!   "mode": "full",
//!   "curves": [
//!     { "backend": "zero-copy", "mix": "c8:g1:l1", "axis": "threads",
//!       "points": [ { "threads": 1, "req_per_sec": ..., "events_per_sec": ...,
//!                     "p50_us": ..., "p99_us": ... }, ... ] }
//!   ]
//! }
//! ```
//!
//! `axis` names what `points[].threads` scales over — `"threads"` for the
//! writer-scaling benches, `"objects"` for store-size tiers, and so on.
//! Artifacts written before the label existed parse with the `"threads"`
//! default, so the schema version did not need to change.

use std::path::{Path, PathBuf};

use kf_yaml::{Mapping, Value};

/// Version of the artifact layout. Bump when fields change shape; the
/// staleness check (`kf-bench` unit tests + the CI parity job) fails any
/// committed `BENCH_*.json` whose stamp disagrees, forcing a regeneration
/// with the documented bench invocation.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// One measured point of a scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// The scale value of this point — what it measures is named by the
    /// owning curve's [`ScalingCurve::axis`] (thread count, object tier,
    /// dirty-shard count, …). The field keeps its historical name for
    /// schema compatibility.
    pub threads: usize,
    /// Sustained requests per second across all threads.
    pub req_per_sec: f64,
    /// Watch-journal events published per second (write revisions over the
    /// run's wall clock) — the write plane's delivery-side throughput.
    pub events_per_sec: f64,
    /// Median per-request `handle` latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request `handle` latency, microseconds.
    pub p99_us: f64,
}

/// A per-scale curve for one (backend, mix) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingCurve {
    /// Store backend label (`zero-copy`; committed artifacts also keep
    /// their historical `baseline` curves).
    pub backend: String,
    /// Mix label (`kf_workloads::MixRatio::label`, e.g. `c8:g1:l1`).
    pub mix: String,
    /// What [`CurvePoint::threads`] scales over (`"threads"`, `"objects"`,
    /// …). Defaults to `"threads"` when an older artifact omits it.
    pub axis: String,
    /// Points in ascending scale order.
    pub points: Vec<CurvePoint>,
}

impl ScalingCurve {
    /// The default axis label, and the implied one for artifacts written
    /// before the label existed.
    pub const DEFAULT_AXIS: &'static str = "threads";
}

/// A complete bench artifact: schema stamp, provenance, curves.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Layout version, must equal [`BENCH_SCHEMA_VERSION`] to be current.
    pub schema_version: i64,
    /// Which bench produced it (`writepath_scaling`).
    pub bench: String,
    /// `full` for committed artifacts, `smoke` for CI smoke output.
    pub mode: String,
    /// The measured curves.
    pub curves: Vec<ScalingCurve>,
}

impl BenchArtifact {
    /// A fresh artifact stamped with the current schema version.
    pub fn new(bench: &str, mode: &str) -> Self {
        BenchArtifact {
            schema_version: BENCH_SCHEMA_VERSION,
            bench: bench.to_owned(),
            mode: mode.to_owned(),
            curves: Vec::new(),
        }
    }

    /// The repo-root path of a committed artifact (`BENCH_writepath.json`
    /// lives next to `README.md`, two levels above this crate).
    pub fn repo_root_path(file_name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file_name)
    }

    /// Serialize to pretty-stable JSON (insertion-ordered mappings).
    pub fn to_json(&self) -> String {
        let mut root = Mapping::new();
        root.insert("schema_version", Value::Int(self.schema_version));
        root.insert("bench", Value::from(self.bench.as_str()));
        root.insert("mode", Value::from(self.mode.as_str()));
        let curves: Vec<Value> = self
            .curves
            .iter()
            .map(|curve| {
                let mut c = Mapping::new();
                c.insert("backend", Value::from(curve.backend.as_str()));
                c.insert("mix", Value::from(curve.mix.as_str()));
                c.insert("axis", Value::from(curve.axis.as_str()));
                let points: Vec<Value> = curve
                    .points
                    .iter()
                    .map(|point| {
                        let mut p = Mapping::new();
                        p.insert("threads", Value::from(point.threads));
                        p.insert("req_per_sec", Value::Float(point.req_per_sec));
                        p.insert("events_per_sec", Value::Float(point.events_per_sec));
                        p.insert("p50_us", Value::Float(point.p50_us));
                        p.insert("p99_us", Value::Float(point.p99_us));
                        Value::Map(p)
                    })
                    .collect();
                c.insert("points", Value::Seq(points));
                Value::Map(c)
            })
            .collect();
        root.insert("curves", Value::Seq(curves));
        kf_yaml::to_json(&Value::Map(root))
    }

    /// Parse an artifact back out of its JSON form.
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = kf_yaml::parse_json(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let root = root.as_map().ok_or("artifact root must be an object")?;
        let field = |name: &str| root.get(name).ok_or(format!("missing field `{name}`"));
        let schema_version = field("schema_version")?
            .as_i64()
            .ok_or("schema_version must be an integer")?;
        let bench = field("bench")?
            .as_str()
            .ok_or("bench must be a string")?
            .to_owned();
        let mode = field("mode")?
            .as_str()
            .ok_or("mode must be a string")?
            .to_owned();
        let mut curves = Vec::new();
        for curve in field("curves")?.as_seq().ok_or("curves must be an array")? {
            let curve = curve.as_map().ok_or("curve must be an object")?;
            let mut points = Vec::new();
            for point in curve
                .get("points")
                .and_then(Value::as_seq)
                .ok_or("curve.points must be an array")?
            {
                let point = point.as_map().ok_or("point must be an object")?;
                let num = |name: &str| {
                    point
                        .get(name)
                        .and_then(Value::as_f64)
                        .ok_or(format!("point.{name} must be a number"))
                };
                points.push(CurvePoint {
                    threads: num("threads")? as usize,
                    req_per_sec: num("req_per_sec")?,
                    events_per_sec: num("events_per_sec")?,
                    p50_us: num("p50_us")?,
                    p99_us: num("p99_us")?,
                });
            }
            curves.push(ScalingCurve {
                backend: curve
                    .get("backend")
                    .and_then(Value::as_str)
                    .ok_or("curve.backend must be a string")?
                    .to_owned(),
                mix: curve
                    .get("mix")
                    .and_then(Value::as_str)
                    .ok_or("curve.mix must be a string")?
                    .to_owned(),
                axis: curve
                    .get("axis")
                    .and_then(Value::as_str)
                    .unwrap_or(ScalingCurve::DEFAULT_AXIS)
                    .to_owned(),
                points,
            });
        }
        Ok(BenchArtifact {
            schema_version,
            bench,
            mode,
            curves,
        })
    }

    /// Load and parse an artifact file.
    ///
    /// # Errors
    ///
    /// The I/O or parse failure, as text.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    /// Write the artifact as JSON (with a trailing newline, as committed
    /// files want).
    ///
    /// # Errors
    ///
    /// The underlying filesystem error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Whether a **committed** artifact is current: schema stamp matches
    /// and it was produced by a full (non-smoke) run.
    ///
    /// # Errors
    ///
    /// A description of what is stale, for the CI check's output.
    pub fn validate_committed(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != current {} — regenerate with the documented bench \
                 invocation",
                self.schema_version, BENCH_SCHEMA_VERSION
            ));
        }
        if self.mode != "full" {
            return Err(format!(
                "mode `{}` — committed artifacts must come from a full run, not smoke",
                self.mode
            ));
        }
        if self.curves.is_empty() || self.curves.iter().any(|c| c.points.is_empty()) {
            return Err("artifact has empty curves".to_owned());
        }
        Ok(())
    }

    /// The curve for a (backend, mix) pair, if present.
    pub fn curve(&self, backend: &str, mix: &str) -> Option<&ScalingCurve> {
        self.curves
            .iter()
            .find(|c| c.backend == backend && c.mix == mix)
    }

    /// A per-thread delta table of `self` (current run) against `baseline`
    /// (the committed artifact), matched by (backend, mix, threads) —
    /// printed into the CI job summary by `--compare`. Positive deltas mean
    /// the current run is faster. Every negative delta is flagged; use
    /// [`BenchArtifact::compare_with_tolerance`] (fed by
    /// `kf_bench::bench_tolerance`) to suppress run-to-run drift.
    pub fn compare(&self, baseline: &BenchArtifact) -> String {
        self.compare_with_tolerance(baseline, 0.0)
    }

    /// [`BenchArtifact::compare`] with a drift allowance: throughput drops
    /// and p99 rises within `tolerance_pct` percent are reported but not
    /// flagged, so single-core run-to-run noise doesn't read as a
    /// regression. Rows with a metric beyond the allowance carry a
    /// trailing `<< beyond tolerance` marker, and the table ends with a
    /// one-line verdict CI can grep.
    pub fn compare_with_tolerance(&self, baseline: &BenchArtifact, tolerance_pct: f64) -> String {
        let mut out = String::new();
        let mut flagged = 0usize;
        out.push_str(&format!(
            "=== {} vs committed baseline (schema v{} vs v{}, tolerance ±{:.1}%) ===\n",
            self.bench, self.schema_version, baseline.schema_version, tolerance_pct
        ));
        for curve in &self.curves {
            let Some(reference) = baseline.curve(&curve.backend, &curve.mix) else {
                out.push_str(&format!(
                    "{}/{}: no baseline curve\n",
                    curve.backend, curve.mix
                ));
                continue;
            };
            for point in &curve.points {
                let Some(base) = reference.points.iter().find(|p| p.threads == point.threads)
                else {
                    out.push_str(&format!(
                        "{}/{} {:>2} threads: no baseline point\n",
                        curve.backend, curve.mix, point.threads
                    ));
                    continue;
                };
                let delta = |now: f64, then: f64| 100.0 * (now - then) / then.max(1e-9);
                let req = delta(point.req_per_sec, base.req_per_sec);
                let events = delta(point.events_per_sec, base.events_per_sec);
                let p99 = delta(point.p99_us, base.p99_us);
                // Lower req/s and events/s are slowdowns; higher p99 is.
                let beyond = req < -tolerance_pct || events < -tolerance_pct || p99 > tolerance_pct;
                out.push_str(&format!(
                    "{:<10} {:<10} {:>2} threads  req/s {:>12.0} ({:>+7.1}%)  events/s \
                     {:>12.0} ({:>+7.1}%)  p99 {:>9.1} µs ({:>+7.1}%){}\n",
                    curve.backend,
                    curve.mix,
                    point.threads,
                    point.req_per_sec,
                    req,
                    point.events_per_sec,
                    events,
                    point.p99_us,
                    p99,
                    if beyond { "  << beyond tolerance" } else { "" },
                ));
                flagged += usize::from(beyond);
            }
        }
        if flagged > 0 {
            out.push_str(&format!(
                "{flagged} point(s) beyond the ±{tolerance_pct:.1}% tolerance\n"
            ));
        } else {
            out.push_str(&format!(
                "all deltas within the ±{tolerance_pct:.1}% tolerance\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
        let mut artifact = BenchArtifact::new("writepath_scaling", "full");
        artifact.curves.push(ScalingCurve {
            backend: "zero-copy".into(),
            mix: "c8:g1:l1".into(),
            axis: ScalingCurve::DEFAULT_AXIS.into(),
            points: vec![
                CurvePoint {
                    threads: 1,
                    req_per_sec: 100_000.0,
                    events_per_sec: 80_000.0,
                    p50_us: 8.0,
                    p99_us: 31.5,
                },
                CurvePoint {
                    threads: 8,
                    req_per_sec: 120_000.0,
                    events_per_sec: 96_000.0,
                    p50_us: 9.0,
                    p99_us: 60.0,
                },
            ],
        });
        artifact
    }

    #[test]
    fn artifacts_roundtrip_through_json() {
        let artifact = sample();
        let parsed = BenchArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(parsed, artifact);
        assert!(parsed.validate_committed().is_ok());
        assert!(parsed.curve("zero-copy", "c8:g1:l1").is_some());
        assert!(parsed.curve("baseline", "c8:g1:l1").is_none());
    }

    #[test]
    fn axis_defaults_to_threads_for_pre_label_artifacts() {
        // An artifact written before the axis label existed still parses,
        // and its curves read as per-thread.
        let mut artifact = sample();
        artifact.curves[0].axis = "objects".into();
        let json = artifact.to_json();
        assert!(json.contains("\"axis\""));
        let stripped = json.replace("\"axis\":\"objects\",", "");
        assert!(!stripped.contains("axis"), "label removed from the JSON");
        let parsed = BenchArtifact::from_json(&stripped).unwrap();
        assert_eq!(parsed.curves[0].axis, ScalingCurve::DEFAULT_AXIS);
        // And the explicit label round-trips.
        let parsed = BenchArtifact::from_json(&json).unwrap();
        assert_eq!(parsed.curves[0].axis, "objects");
    }

    #[test]
    fn staleness_is_detected() {
        let mut stale = sample();
        stale.schema_version = BENCH_SCHEMA_VERSION - 1;
        assert!(stale.validate_committed().unwrap_err().contains("schema"));
        let mut smoke = sample();
        smoke.mode = "smoke".into();
        assert!(smoke.validate_committed().unwrap_err().contains("smoke"));
        let mut empty = sample();
        empty.curves.clear();
        assert!(empty.validate_committed().is_err());
    }

    #[test]
    fn malformed_json_reports_the_field() {
        assert!(BenchArtifact::from_json("{").is_err());
        assert!(BenchArtifact::from_json("{\"schema_version\": 1}")
            .unwrap_err()
            .contains("bench"));
        assert!(BenchArtifact::from_json("[1]")
            .unwrap_err()
            .contains("object"));
    }

    #[test]
    fn compare_prints_per_thread_deltas() {
        let baseline = sample();
        let mut current = sample();
        current.curves[0].points[1].req_per_sec = 150_000.0;
        let table = current.compare(&baseline);
        assert!(table.contains("+25.0%"));
        assert!(table.contains("8 threads"));
        // Missing baseline curves are reported, not panicked on.
        let mut renamed = sample();
        renamed.curves[0].backend = "other".into();
        assert!(renamed.compare(&baseline).contains("no baseline curve"));
    }

    #[test]
    fn tolerance_suppresses_drift_but_flags_regressions() {
        let baseline = sample();
        let mut drifted = sample();
        // 5% slower everywhere: noise on a shared core, not a regression.
        for point in &mut drifted.curves[0].points {
            point.req_per_sec *= 0.95;
            point.events_per_sec *= 0.95;
            point.p99_us *= 1.05;
        }
        let table = drifted.compare_with_tolerance(&baseline, 10.0);
        assert!(table.contains("all deltas within"));
        assert!(!table.contains("beyond tolerance"));
        // The same drift IS flagged at zero tolerance (compare's default).
        assert!(drifted.compare(&baseline).contains("beyond tolerance"));
        // A real collapse punches through the allowance.
        let mut regressed = sample();
        regressed.curves[0].points[0].req_per_sec *= 0.5;
        let table = regressed.compare_with_tolerance(&baseline, 10.0);
        assert!(table.contains("<< beyond tolerance"));
        assert!(table.contains("1 point(s) beyond"));
    }

    /// The tracked-artifact gate for the push-notify watch fabric: the
    /// committed `BENCH_watchfanout.json` must exist, be current, cover
    /// push and poll delivery on the zero-copy store at the standard
    /// subscriber counts, and show the fabric earning its keep — at 1k
    /// subscribers on the zero-copy backend, push delivery must sustain
    /// ≥ 2x poll events/s or ≥ 5x better p99 delivery latency.
    #[test]
    fn committed_watchfanout_artifact_is_current() {
        let path = BenchArtifact::repo_root_path("BENCH_watchfanout.json");
        let artifact = BenchArtifact::load(&path)
            .expect("BENCH_watchfanout.json must be committed at the repo root");
        artifact
            .validate_committed()
            .expect("committed artifact must be current — regenerate: cargo bench -p kf-bench --bench watch_fanout");
        assert_eq!(artifact.bench, "watch_fanout");
        for mix in ["push", "poll"] {
            let curve = artifact
                .curve("zero-copy", mix)
                .unwrap_or_else(|| panic!("missing zero-copy/{mix} fan-out curve"));
            let subs: Vec<usize> = curve.points.iter().map(|p| p.threads).collect();
            assert_eq!(subs, vec![100, 1000, 10000], "standard subscriber counts");
            assert!(curve.points.iter().all(|p| p.req_per_sec > 0.0
                && p.events_per_sec > 0.0
                && p.p50_us > 0.0
                && p.p99_us >= p.p50_us));
        }
        let at = |mix: &str| {
            artifact
                .curve("zero-copy", mix)
                .and_then(|c| c.points.iter().find(|p| p.threads == 1000))
                .expect("zero-copy curves carry the 1k-subscriber point")
        };
        let (push, poll) = (at("push"), at("poll"));
        assert!(
            push.events_per_sec >= 2.0 * poll.events_per_sec || push.p99_us * 5.0 <= poll.p99_us,
            "push must beat poll at 1k subscribers: {:.0} vs {:.0} events/s, p99 {:.1} vs {:.1} µs",
            push.events_per_sec,
            poll.events_per_sec,
            push.p99_us,
            poll.p99_us
        );
    }

    /// The tracked-artifact gate for the durable persistence plane: the
    /// committed `BENCH_coldstart.json` must exist, be current, cover all
    /// three fsync policies plus the in-memory rebuild baseline at the
    /// standard object tiers, carry both policy-plane points, and show the
    /// AOT cache earning its keep — loading compiled arenas must be faster
    /// than re-running chart-to-validator generation.
    #[test]
    fn committed_coldstart_artifact_is_current() {
        let path = BenchArtifact::repo_root_path("BENCH_coldstart.json");
        let artifact = BenchArtifact::load(&path)
            .expect("BENCH_coldstart.json must be committed at the repo root");
        artifact
            .validate_committed()
            .expect("committed artifact must be current — regenerate: cargo bench -p kf-bench --bench cold_start");
        assert_eq!(artifact.bench, "cold_start");
        for (backend, mix) in [
            ("durable", "always"),
            ("durable", "batch:64"),
            ("durable", "os"),
            ("in-memory", "rebuild"),
        ] {
            let curve = artifact
                .curve(backend, mix)
                .unwrap_or_else(|| panic!("missing {backend}/{mix} cold-start curve"));
            assert_eq!(
                curve.axis, "objects",
                "cold-start tiers scale over objects, not threads"
            );
            let tiers: Vec<usize> = curve.points.iter().map(|p| p.threads).collect();
            assert_eq!(tiers, vec![1_000, 5_000, 20_000], "standard object tiers");
            assert!(curve.points.iter().all(|p| p.req_per_sec > 0.0
                && p.events_per_sec > 0.0
                && p.p50_us > 0.0
                && p.p99_us >= p.p50_us));
        }
        let policy_point = |mix: &str| {
            let curve = artifact
                .curve("policy", mix)
                .unwrap_or_else(|| panic!("missing policy/{mix} curve"));
            assert_eq!(curve.points.len(), 1, "policy curves are one-shot");
            assert!(curve.points[0].p50_us > 0.0);
            curve.points[0].clone()
        };
        let (aot, recompile) = (policy_point("aot-load"), policy_point("recompile"));
        assert!(
            aot.p50_us < recompile.p50_us,
            "AOT load ({:.1} µs) must beat policy regeneration ({:.1} µs)",
            aot.p50_us,
            recompile.p50_us
        );
    }

    /// The tracked-artifact gate for the group-commit WAL and incremental
    /// checkpoints: the committed `BENCH_durability.json` must exist, be
    /// current, cover all four fsync policies at the standard writer
    /// counts plus the dirty-shard checkpoint curve, and show both
    /// mechanisms earning their keep:
    ///
    /// * `group` must beat `always` req/s at 8 writers by at least
    ///   `KF_DURABILITY_MIN_SPEEDUP` (default 1.5x — the floor that
    ///   catches a regression to un-batched fsyncs; the plane's target is
    ///   10x, which needs real writer parallelism a single-core runner
    ///   cannot express, so the measured multiple is printed next to the
    ///   target rather than gated at it);
    /// * `group` must scale with writers (8-writer req/s ≥ 1.5x 1-writer —
    ///   the amortization signature `always` cannot produce);
    /// * a 1-dirty-shard checkpoint must run at least 2x faster than the
    ///   all-shards one over the same store (the O(dirty) claim).
    #[test]
    fn committed_durability_artifact_is_current() {
        let path = BenchArtifact::repo_root_path("BENCH_durability.json");
        let artifact = BenchArtifact::load(&path)
            .expect("BENCH_durability.json must be committed at the repo root");
        artifact
            .validate_committed()
            .expect("committed artifact must be current — regenerate: cargo bench -p kf-bench --bench durability_scaling");
        assert_eq!(artifact.bench, "durability_scaling");
        for mix in ["always", "batch:64", "os", "group"] {
            let curve = artifact
                .curve("durable", mix)
                .unwrap_or_else(|| panic!("missing durable/{mix} writer curve"));
            assert_eq!(curve.axis, ScalingCurve::DEFAULT_AXIS);
            let writers: Vec<usize> = curve.points.iter().map(|p| p.threads).collect();
            assert_eq!(writers, vec![1, 2, 4, 8], "standard writer counts");
            assert!(curve.points.iter().all(|p| p.req_per_sec > 0.0
                && p.events_per_sec > 0.0
                && p.p50_us > 0.0
                && p.p99_us >= p.p50_us));
        }
        let at = |mix: &str, writers: usize| {
            artifact
                .curve("durable", mix)
                .and_then(|c| c.points.iter().find(|p| p.threads == writers))
                .unwrap_or_else(|| panic!("missing durable/{mix} point at {writers} writers"))
                .req_per_sec
        };
        let floor = std::env::var("KF_DURABILITY_MIN_SPEEDUP")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(1.5);
        let multiple = at("group", 8) / at("always", 8).max(1e-9);
        println!(
            "group vs always at 8 writers: {multiple:.1}x measured (target 10x, gate floor \
             {floor:.1}x)"
        );
        assert!(
            multiple >= floor,
            "group ({:.0} req/s) must beat always ({:.0} req/s) at 8 writers by ≥ {floor:.1}x, \
             measured {multiple:.1}x — group commit stopped amortizing",
            at("group", 8),
            at("always", 8),
        );
        assert!(
            at("group", 8) >= 1.5 * at("group", 1),
            "group req/s must scale with writers ({:.0} at 8 vs {:.0} at 1): the shared-window \
             amortization is the mechanism under test",
            at("group", 8),
            at("group", 1),
        );
        let checkpoint = artifact
            .curve("checkpoint", "dirty-shards")
            .expect("missing checkpoint/dirty-shards curve");
        assert_eq!(checkpoint.axis, "dirty-shards");
        let tiers: Vec<usize> = checkpoint.points.iter().map(|p| p.threads).collect();
        assert_eq!(tiers, vec![1, 4, 16], "standard dirty tiers");
        let cost = |tier: usize| {
            checkpoint
                .points
                .iter()
                .find(|p| p.threads == tier)
                .expect("tier present")
                .p50_us
        };
        assert!(
            2.0 * cost(1) <= cost(16),
            "a 1-dirty-shard checkpoint ({:.0} µs) must be ≥ 2x faster than the all-shards one \
             ({:.0} µs): checkpoint cost must track the dirty set, not store size",
            cost(1),
            cost(16),
        );
    }

    /// The tracked-artifact gate: the committed `BENCH_writepath.json` at
    /// the repo root must exist, parse, carry the current schema version,
    /// come from a full run, and cover the zero-copy store at the standard
    /// thread counts. Runs in tier-1 *and* as the CI parity job's
    /// staleness-check step.
    #[test]
    fn committed_writepath_artifact_is_current() {
        let path = BenchArtifact::repo_root_path("BENCH_writepath.json");
        let artifact = BenchArtifact::load(&path)
            .expect("BENCH_writepath.json must be committed at the repo root");
        artifact
            .validate_committed()
            .expect("committed artifact must be current — regenerate: cargo bench -p kf-bench --bench writepath_scaling");
        assert_eq!(artifact.bench, "writepath_scaling");
        let curve = artifact
            .curve("zero-copy", "c8:g1:l1")
            .expect("missing zero-copy write-heavy curve");
        let threads: Vec<usize> = curve.points.iter().map(|p| p.threads).collect();
        assert_eq!(threads, vec![1, 4, 8], "standard thread counts");
        assert!(curve.points.iter().all(|p| p.req_per_sec > 0.0
            && p.events_per_sec > 0.0
            && p.p50_us > 0.0
            && p.p99_us >= p.p50_us));
    }
}
