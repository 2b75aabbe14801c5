//! Cold start as a tracked artifact: write throughput with the WAL on vs
//! the in-memory store, recovery time from snapshot + WAL replay vs
//! rebuilding state from scratch, and ahead-of-time validator loading vs
//! re-running the policy pipeline — emitted as `BENCH_coldstart.json`.
//!
//! This is the measurement behind the durable persistence plane. Three
//! curve families share the artifact schema:
//!
//! * **durable/`<fsync>`** (`always`, `batch:64`, `os`) — a WAL-backed
//!   [`k8s_apiserver::ObjectStore`] populated with N pods through the
//!   single-write path (one framed, policy-fsync'd append per write), then
//!   crashed and reopened. `req_per_sec` is populate throughput,
//!   `events_per_sec` the replay rate, `p50_us`/`p99_us` the recovery
//!   wall-clock (they are the same number here: one cold start is one
//!   sample, not a distribution).
//! * **in-memory/rebuild** — the same population against a plain store,
//!   with "recovery" being the only option an in-memory deployment has:
//!   re-apply every object from the source manifests.
//! * **policy/aot-load vs policy/recompile** — enforcement state for the
//!   five operators restored from the AOT arena cache
//!   ([`kubefence::load_validator_set`]) vs regenerated chart-to-validator
//!   and recompiled; `events_per_sec` counts validators brought up.
//!
//! Invocations:
//!
//! * `cargo bench -p kf-bench --bench cold_start` — full run; **regenerates
//!   `BENCH_coldstart.json` at the repo root** (the committed trajectory;
//!   tier-1 and CI fail if it goes stale).
//! * `-- --smoke` (or `KF_BENCH_SMOKE=1`) — tiny object tiers for CI;
//!   writes `target/BENCH_coldstart.smoke.json` instead.
//! * `-- --compare <path>` — prints per-tier deltas against a committed
//!   baseline, with slowdowns inside `KF_BENCH_TOLERANCE` percent
//!   (default 10) reported but not flagged.
//! * `KF_WAL_FSYNC=<always|os|batch:N>` — restrict the durable curves to a
//!   single fsync policy (exploration runs; the committed artifact carries
//!   all three).
//! * `KF_BENCH_JSON_OUT=<path>` — override the output path in any mode.

use std::path::PathBuf;
use std::time::Instant;

use k8s_apiserver::persist::{FsyncPolicy, PersistConfig, Persistence};
use k8s_apiserver::{ObjectStore, RealIo, StoreBackend};
use k8s_model::K8sObject;
use kf_bench::{bench_tolerance, smoke_mode, BenchArtifact, CurvePoint, ScalingCurve};
use kf_workloads::Operator;
use kubefence::{GeneratorConfig, PolicyGenerator, ValidatorSet};

/// Object-count tiers (stored pods at crash time).
const FULL_TIERS: [usize; 3] = [1_000, 5_000, 20_000];
const SMOKE_TIERS: [usize; 2] = [100, 400];

const NAMESPACE: &str = "bench";

fn tiers() -> Vec<usize> {
    if smoke_mode() {
        SMOKE_TIERS.to_vec()
    } else {
        FULL_TIERS.to_vec()
    }
}

/// The fsync policies the durable curves measure, label + parsed form.
/// `KF_WAL_FSYNC` narrows the sweep to one policy for exploration runs.
fn fsync_policies() -> Vec<(String, FsyncPolicy)> {
    if let Ok(text) = std::env::var("KF_WAL_FSYNC") {
        let policy = FsyncPolicy::parse(&text)
            .unwrap_or_else(|| panic!("KF_WAL_FSYNC={text:?} is not always|os|batch:N"));
        return vec![(text, policy)];
    }
    vec![
        ("always".to_owned(), FsyncPolicy::Always),
        ("batch:64".to_owned(), FsyncPolicy::Batch(64)),
        ("os".to_owned(), FsyncPolicy::Os),
    ]
}

/// N distinct pods with realistic field footprints.
fn object_pool(count: usize) -> Vec<K8sObject> {
    (0..count)
        .map(|i| {
            K8sObject::from_yaml(&format!(
                "apiVersion: v1\nkind: Pod\nmetadata:\n  name: cold-{i}\n  namespace: \
                 {NAMESPACE}\n  labels:\n    app: coldstart\n    replica: \"{i}\"\nspec:\n  \
                 containers:\n    - name: app\n      image: nginx:1.25\n      ports:\n        \
                 - containerPort: 80\n",
            ))
            .expect("template pod parses")
        })
        .collect()
}

fn temp_dir(label: &str, tier: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kf-coldstart-{label}-{tier}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Durable cold start: populate through the WAL'd single-write path, make
/// the tail durable, crash, reopen. One point per object tier.
fn measure_durable(label: &str, policy: FsyncPolicy, count: usize) -> CurvePoint {
    let dir = temp_dir(label, count);
    let objects = object_pool(count);

    let write_elapsed;
    {
        let (store, persistence, _) =
            Persistence::open(PersistConfig::new(&dir).with_fsync(policy))
                .expect("persistence directory opens");
        let start = Instant::now();
        for object in &objects {
            store.upsert(object.clone());
        }
        persistence.wal().sync().expect("WAL tail syncs");
        write_elapsed = start.elapsed().as_secs_f64().max(1e-9);
        // Crash: drop without a checkpoint. Recovery below replays the WAL.
    }

    let start = Instant::now();
    let (store, _persistence, report) =
        Persistence::open(PersistConfig::new(&dir).with_fsync(policy)).expect("recovery opens");
    let recovery = start.elapsed();
    assert_eq!(
        StoreBackend::len(&store),
        count,
        "replay must restore every object"
    );
    let recovery_secs = recovery.as_secs_f64().max(1e-9);
    let recovery_us = recovery.as_micros() as f64;
    std::fs::remove_dir_all(&dir).ok();
    CurvePoint {
        threads: count,
        req_per_sec: count as f64 / write_elapsed,
        events_per_sec: (report.snapshot_objects + report.replayed) as f64 / recovery_secs,
        p50_us: recovery_us,
        p99_us: recovery_us,
    }
}

/// In-memory cold start: same population, and the only recovery an
/// in-memory deployment has — re-apply everything from source.
fn measure_in_memory(count: usize) -> CurvePoint {
    let objects = object_pool(count);
    let store = ObjectStore::new();
    let start = Instant::now();
    for object in &objects {
        store.upsert(object.clone());
    }
    let write_elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let rebuilt = ObjectStore::new();
    let start = Instant::now();
    for object in &objects {
        rebuilt.upsert(object.clone());
    }
    let recovery = start.elapsed();
    let recovery_secs = recovery.as_secs_f64().max(1e-9);
    let recovery_us = recovery.as_micros() as f64;
    CurvePoint {
        threads: count,
        req_per_sec: count as f64 / write_elapsed,
        events_per_sec: count as f64 / recovery_secs,
        p50_us: recovery_us,
        p99_us: recovery_us,
    }
}

/// The five operators' validators, generated from their charts (the cold
/// path the AOT cache exists to skip). The compiled arena is forced so the
/// recompile timing includes lowering, not just tree merging.
fn generate_validator_set() -> ValidatorSet {
    let generator = PolicyGenerator::new(GeneratorConfig::default());
    let mut set = ValidatorSet::new();
    for operator in Operator::ALL {
        let validator = generator
            .generate(&operator.chart())
            .expect("operator charts generate validators");
        validator.compiled();
        set.push(validator);
    }
    set
}

/// Policy cold start: AOT arena load vs full regeneration. `threads` is the
/// operator count; one point per mix.
fn measure_policy() -> (CurvePoint, CurvePoint) {
    let start = Instant::now();
    let set = generate_validator_set();
    let recompile = start.elapsed();

    let path = std::env::temp_dir().join(format!("kf-coldstart-aot-{}.kfaot", std::process::id()));
    kubefence::save_validator_set(&RealIo, &path, &set).expect("AOT cache saves");
    let start = Instant::now();
    let loaded = kubefence::load_validator_set(&RealIo, &path)
        .expect("AOT cache loads")
        .expect("AOT cache present");
    let aot = start.elapsed();
    assert_eq!(loaded.validators().len(), Operator::ALL.len());
    std::fs::remove_file(&path).ok();

    let point = |elapsed: std::time::Duration| {
        let secs = elapsed.as_secs_f64().max(1e-9);
        let us = elapsed.as_micros() as f64;
        CurvePoint {
            threads: Operator::ALL.len(),
            req_per_sec: 1.0 / secs,
            events_per_sec: Operator::ALL.len() as f64 / secs,
            p50_us: us,
            p99_us: us,
        }
    };
    (point(aot), point(recompile))
}

fn row(backend: &str, mix: &str, point: &CurvePoint) {
    println!(
        "{backend:<10} {mix:<9} {:>6} objs  write {:>9.0} req/s  replay {:>9.0} objs/s   \
         recovery {:>11.1} µs",
        point.threads, point.req_per_sec, point.events_per_sec, point.p50_us,
    );
}

fn output_path(smoke: bool) -> PathBuf {
    if let Ok(path) = std::env::var("KF_BENCH_JSON_OUT") {
        return PathBuf::from(path);
    }
    if smoke {
        BenchArtifact::repo_root_path("target/BENCH_coldstart.smoke.json")
    } else {
        BenchArtifact::repo_root_path("BENCH_coldstart.json")
    }
}

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
    println!("\n=== Cold start: WAL'd write path, snapshot + replay recovery, AOT policies ===");
    println!("(object tiers {:?}, fsync policies {:?})", tiers(), {
        let labels: Vec<String> = fsync_policies().into_iter().map(|(l, _)| l).collect();
        labels
    });

    let mut artifact = BenchArtifact::new("cold_start", if smoke { "smoke" } else { "full" });

    for (label, policy) in fsync_policies() {
        println!("\n--- durable store, fsync {label} ---");
        let mut points = Vec::new();
        for count in tiers() {
            let point = measure_durable(&label, policy, count);
            row("durable", &label, &point);
            points.push(point);
        }
        artifact.curves.push(ScalingCurve {
            backend: "durable".to_owned(),
            mix: label,
            axis: "objects".to_owned(),
            points,
        });
    }

    println!("\n--- in-memory store, rebuild-from-source recovery ---");
    let mut points = Vec::new();
    for count in tiers() {
        let point = measure_in_memory(count);
        row("in-memory", "rebuild", &point);
        points.push(point);
    }
    artifact.curves.push(ScalingCurve {
        backend: "in-memory".to_owned(),
        mix: "rebuild".to_owned(),
        axis: "objects".to_owned(),
        points,
    });

    println!("\n--- policy plane: AOT arena load vs chart-to-validator regeneration ---");
    let (aot, recompile) = measure_policy();
    println!(
        "policy     aot-load       {} validators   {:>11.1} µs",
        aot.threads, aot.p50_us
    );
    println!(
        "policy     recompile      {} validators   {:>11.1} µs   ({:.1}x slower than AOT)",
        recompile.threads,
        recompile.p50_us,
        recompile.p50_us / aot.p50_us.max(1e-9)
    );
    artifact.curves.push(ScalingCurve {
        backend: "policy".to_owned(),
        mix: "aot-load".to_owned(),
        axis: "validators".to_owned(),
        points: vec![aot],
    });
    artifact.curves.push(ScalingCurve {
        backend: "policy".to_owned(),
        mix: "recompile".to_owned(),
        axis: "validators".to_owned(),
        points: vec![recompile],
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
                    artifact.compare_with_tolerance(&committed, bench_tolerance())
                );
            }
            Err(error) => println!("\ncannot compare against {}: {error}", path.display()),
        }
    }
}
