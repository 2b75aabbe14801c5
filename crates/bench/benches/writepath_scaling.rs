//! Write-path multicore scaling as a tracked artifact: per-thread curves
//! (req/s, events/s, p50/p99) for the zero-copy store under the write-heavy
//! mix, emitted as `BENCH_writepath.json`.
//!
//! This is the measurement behind the write-path scale-out (namespace-
//! sharded journals + batched publication): the write-heavy mix (8 creates
//! : 1 get : 1 list) drives every create through RBAC → admission → store →
//! journal → audit, so the journal critical section is on the hot path of
//! 80% of the traffic. The bench replays the mix at 1/4/8 threads over the
//! zero-copy [`k8s_apiserver::ObjectStore`], records sustained req/s,
//! published journal events/s and the p50/p99 `handle` latency, and writes
//! the curve as a schema-stamped JSON artifact. The committed artifact also
//! keeps the `baseline` curve measured before the deep-clone store was
//! deleted; a new full run writes the `zero-copy` curve only.
//!
//! Invocations:
//!
//! * `cargo bench -p kf-bench --bench writepath_scaling` — full run;
//!   **regenerates `BENCH_writepath.json` at the repo root** (the committed
//!   perf trajectory; tier-1 and CI fail if the committed file goes stale
//!   relative to the schema).
//! * `-- --smoke` (or `KF_BENCH_SMOKE=1`) — tiny configuration for CI;
//!   writes `target/BENCH_writepath.smoke.json` instead so the committed
//!   artifact is never dirtied by a smoke run.
//! * `-- --compare <path>` — additionally prints per-thread deltas of this
//!   run against a committed baseline artifact (the CI job summary runs
//!   `--smoke --compare BENCH_writepath.json`). Slowdowns within
//!   `KF_BENCH_TOLERANCE` percent (default 10) are reported but not
//!   flagged, so single-core run-to-run drift doesn't read as regression.
//! * `KF_BENCH_JSON_OUT=<path>` — override the output path in any mode.
//!
//! Stores are pre-populated through the batched bulk-load path
//! (`ThroughputDriver::seed_store` → `StoreBackend::apply_batch`), which is
//! itself part of the measured machinery.

use std::path::PathBuf;

use k8s_apiserver::{ApiServer, ObjectStore};
use k8s_rbac::RbacPolicySet;
use kf_bench::{
    learned_mixed_policy, replay_requests, smoke_mode, BenchArtifact, CurvePoint, ScalingCurve,
};
use kf_workloads::{MixRatio, Operator, ThroughputDriver};

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const FULL_REQUESTS_PER_THREAD: usize = 2_000;

/// One thread-count measurement: replay the pool, derive events/s from the
/// journal revision delta over the run's wall clock.
fn measure(policy: &RbacPolicySet, driver: &ThroughputDriver, threads: usize) -> CurvePoint {
    let store = ObjectStore::new();
    driver.seed_store(&store);
    let server = ApiServer::with_store(store);
    server.set_rbac_policy(Some(policy.clone()));
    let published_before = server.store().revision();
    let report = driver.run(&server, threads, replay_requests(FULL_REQUESTS_PER_THREAD));
    assert_eq!(report.denied, 0, "learned policy must authorize the pool");
    let published = server.store().revision() - published_before;
    CurvePoint {
        threads,
        req_per_sec: report.requests_per_sec(),
        events_per_sec: published as f64 / report.elapsed.as_secs_f64().max(1e-9),
        p50_us: report.p50.as_nanos() as f64 / 1e3,
        p99_us: report.p99.as_nanos() as f64 / 1e3,
    }
}

fn row(backend: &str, point: &CurvePoint) {
    println!(
        "{backend:<10} {:>2} threads  {:>12.0} req/s  {:>12.0} events/s   p50 {:>9.1} µs   p99 {:>9.1} µs",
        point.threads, point.req_per_sec, point.events_per_sec, point.p50_us, point.p99_us,
    );
}

/// Where this run's artifact goes: `KF_BENCH_JSON_OUT` if set, else the
/// repo root for full runs and `target/` for smoke runs.
fn output_path(smoke: bool) -> PathBuf {
    if let Ok(path) = std::env::var("KF_BENCH_JSON_OUT") {
        return PathBuf::from(path);
    }
    if smoke {
        BenchArtifact::repo_root_path("target/BENCH_writepath.smoke.json")
    } else {
        BenchArtifact::repo_root_path("BENCH_writepath.json")
    }
}

/// The `--compare <path>` argument, resolved against the CWD first and the
/// repo root second.
fn compare_path() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--compare" {
            let name = args.next().expect("--compare takes a path");
            let direct = PathBuf::from(&name);
            return Some(if direct.exists() {
                direct
            } else {
                BenchArtifact::repo_root_path(&name)
            });
        }
    }
    None
}

fn main() {
    let smoke = smoke_mode();
    let mix = MixRatio::WRITE_HEAVY;
    println!("\n=== Write-path scaling: sharded journals + batched publication ===");
    println!(
        "(write-heavy mix {}; {} requests/thread; full ApiServer per request)",
        mix.label(),
        replay_requests(FULL_REQUESTS_PER_THREAD)
    );
    let driver = ThroughputDriver::for_operators_mixed(&Operator::ALL, mix);
    let policy = learned_mixed_policy(&driver);

    let mut artifact =
        BenchArtifact::new("writepath_scaling", if smoke { "smoke" } else { "full" });
    println!();
    let mut points = Vec::new();
    for threads in THREAD_COUNTS {
        let point = measure(&policy, &driver, threads);
        row("zero-copy", &point);
        points.push(point);
    }
    artifact.curves.push(ScalingCurve {
        backend: "zero-copy".to_owned(),
        mix: mix.label(),
        axis: ScalingCurve::DEFAULT_AXIS.to_owned(),
        points,
    });

    let out = output_path(smoke);
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).expect("output directory is creatable");
    }
    artifact.save(&out).expect("artifact is writable");
    println!("\nwrote {}", out.display());

    if let Some(path) = compare_path() {
        match BenchArtifact::load(&path) {
            Ok(committed) => {
                println!();
                print!(
                    "{}",
                    artifact.compare_with_tolerance(&committed, kf_bench::bench_tolerance())
                );
            }
            Err(error) => println!("\ncannot compare against {}: {error}", path.display()),
        }
    }
}
