//! Watch fan-out at informer scale as a tracked artifact: push-notify
//! delivery vs poll-based delivery at 100/1k/10k subscribers on the
//! zero-copy store, emitted as `BENCH_watchfanout.json`. The committed
//! artifact also keeps the `baseline` curves measured before the deep-clone
//! store was deleted; a new full run writes the `zero-copy` curves only.
//!
//! This is the measurement behind the push-notify watch fabric (per-shard
//! wake signals, bounded subscriber queues with same-object coalescing,
//! epoll-style readiness dispatch). One writer bursts updates over a small
//! hot set of pods in a single namespace while N watchers consume:
//!
//! * **push** — every watcher is a [`k8s_apiserver::WatchHub::subscribe_push`]
//!   subscription registered with one [`k8s_apiserver::WatchDispatcher`];
//!   four collector threads drain whichever subscriber the dispatcher
//!   surfaces. Delivery work happens only when the publication critical
//!   section fans an event out — no per-watcher polling requests at all.
//! * **poll** — every watcher holds a resume cursor and four poller threads
//!   round-robin full `Verb::Watch` requests through the server (the
//!   pre-fabric delivery discipline): each poll pays RBAC + audit + journal
//!   scan whether or not anything changed.
//!
//! Per delivered event the bench measures **delivery latency** — the wall
//! clock from the write that published the revision to the moment a watcher
//! drains it — via a revision-indexed timestamp slab, sampled on a stride
//! of subscribers. Events/s counts events actually handed to watchers, so
//! push numbers reflect coalescing (a watcher that takes the newest state
//! of a hot object skips the stale intermediates).
//!
//! Invocations:
//!
//! * `cargo bench -p kf-bench --bench watch_fanout` — full run;
//!   **regenerates `BENCH_watchfanout.json` at the repo root** (the
//!   committed trajectory; tier-1 and CI fail if it goes stale).
//! * `-- --smoke` (or `KF_BENCH_SMOKE=1`) — tiny subscriber tiers for CI;
//!   writes `target/BENCH_watchfanout.smoke.json` instead.
//! * `-- --compare <path>` — prints per-tier deltas against a committed
//!   baseline, with slowdowns inside `KF_BENCH_TOLERANCE` percent
//!   (default 10) reported but not flagged.
//! * `KF_BENCH_JSON_OUT=<path>` — override the output path in any mode.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use k8s_apiserver::{
    ApiRequest, ApiServer, ObjectStore, RequestHandler, WatchDispatcher, WatchHub,
};
use k8s_model::{K8sObject, ResourceKind};
use kf_bench::{bench_tolerance, smoke_mode, BenchArtifact, CurvePoint, ScalingCurve};

/// Subscriber tiers: informer-fleet sizes from the paper's scale argument.
const FULL_TIERS: [usize; 3] = [100, 1_000, 10_000];
const SMOKE_TIERS: [usize; 2] = [8, 32];

/// Distinct objects in the hot set — small enough that bursts coalesce,
/// large enough that queues see real interleaving.
const HOT_SET: usize = 48;

/// Collector/poller thread count (the container is a small shared box; the
/// contrast under test is delivery discipline, not thread scaling).
const DRAIN_THREADS: usize = 4;

/// Watchers sampled for delivery latency (stride over the tier).
const LATENCY_SAMPLE_SUBS: usize = 128;

const USER: &str = "admin";
const NAMESPACE: &str = "bench";
const KIND: ResourceKind = ResourceKind::Pod;

/// Writes per tier: scaled down as fan-out multiplies per-write work, so a
/// full run stays in CI-friendly wall-clock territory.
fn writes_for(subscribers: usize) -> usize {
    if smoke_mode() {
        60
    } else if subscribers >= 10_000 {
        150
    } else if subscribers >= 1_000 {
        600
    } else {
        1_500
    }
}

/// The writer's pacing: watch traffic is a stream, not one dense burst, so
/// the writer spreads its writes over a ~1.5 s window (writes × interval).
/// This measures steady-state delivery — how long a published revision
/// takes to reach every watcher while the fleet is attached — rather than
/// how fast one burst drains, which is the regime informer fleets live in.
fn write_interval(subscribers: usize) -> std::time::Duration {
    if smoke_mode() {
        std::time::Duration::from_micros(500)
    } else if subscribers >= 10_000 {
        std::time::Duration::from_millis(10)
    } else if subscribers >= 1_000 {
        std::time::Duration::from_micros(2_500)
    } else {
        std::time::Duration::from_millis(1)
    }
}

fn tiers() -> Vec<usize> {
    if smoke_mode() {
        SMOKE_TIERS.to_vec()
    } else {
        FULL_TIERS.to_vec()
    }
}

/// The hot set, pre-parsed once; writes clone a template (cheap: the body
/// is an `Arc` tree) and upsert it round-robin.
fn hot_set() -> Vec<K8sObject> {
    (0..HOT_SET)
        .map(|i| {
            K8sObject::from_yaml(&format!(
                "apiVersion: v1\nkind: Pod\nmetadata:\n  name: fanout-{i}\n  namespace: \
                 {NAMESPACE}\nspec:\n  containers:\n    - name: app\n      image: nginx\n",
            ))
            .expect("template pod parses")
        })
        .collect()
}

/// Revision-indexed publish timestamps. The writer stamps `slab[rev -
/// base - 1]` right after `upsert` returns; a consumer that races ahead of
/// the stamp spins (the window is the tail of the publication critical
/// section, nanoseconds).
struct StampSlab {
    base: u64,
    nanos: Vec<AtomicU64>,
    epoch: Instant,
}

impl StampSlab {
    fn new(base: u64, writes: usize) -> Self {
        StampSlab {
            base,
            nanos: (0..writes).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
        }
    }

    fn stamp(&self, revision: u64) {
        let idx = (revision - self.base - 1) as usize;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.nanos[idx].store(now.max(1), Ordering::Release);
    }

    /// Delivery latency in nanoseconds for a measured revision, `None` for
    /// revisions outside the measured window (backfill, foreign writes).
    fn latency(&self, revision: u64) -> Option<u64> {
        if revision <= self.base {
            return None;
        }
        let idx = (revision - self.base - 1) as usize;
        if idx >= self.nanos.len() {
            return None;
        }
        let mut published = self.nanos[idx].load(Ordering::Acquire);
        while published == 0 {
            std::thread::yield_now();
            published = self.nanos[idx].load(Ordering::Acquire);
        }
        Some((self.epoch.elapsed().as_nanos() as u64).saturating_sub(published))
    }
}

fn percentile_us(samples: &mut [u64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() as f64 * pct).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[idx] as f64 / 1e3
}

/// The writer: streams `writes` upserts over the hot set on an absolute
/// schedule (start + i×interval, no drift accumulation), stamping each
/// assigned revision.
fn run_writer(
    store: &ObjectStore,
    templates: &[K8sObject],
    writes: usize,
    interval: std::time::Duration,
    slab: &StampSlab,
) {
    let start = Instant::now();
    for i in 0..writes {
        let due = interval * i as u32;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let (revision, _) = store.upsert(templates[i % templates.len()].clone());
        slab.stamp(revision);
    }
}

/// Push delivery: N dispatcher-registered subscriptions drained by
/// [`DRAIN_THREADS`] collectors, events/s and sampled delivery latency.
fn measure_push(server: &ApiServer, subscribers: usize) -> CurvePoint {
    let writes = writes_for(subscribers);
    let interval = write_interval(subscribers);
    let templates = hot_set();
    // Materialize the hot set once so pushes after the first lap are
    // updates, then snapshot the measured window's base revision.
    for template in &templates {
        server.store().upsert(template.clone());
    }
    let base = server.store().revision();
    let final_revision = base + writes as u64;
    let slab = StampSlab::new(base, writes);

    let dispatcher = WatchDispatcher::new();
    let stride = (subscribers / LATENCY_SAMPLE_SUBS).max(1);
    let watchers: Vec<_> = (0..subscribers)
        .map(|token| {
            let push = server
                .subscribe_push(&ApiRequest::watch(USER, KIND, NAMESPACE, Some(base)))
                .expect("admin watch subscription is authorized");
            dispatcher.register(&push.subscriber, token);
            (
                push.subscriber,
                AtomicBool::new(false),
                Mutex::new(Vec::<u64>::new()),
            )
        })
        .collect();

    let delivered = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| run_writer(server.store(), &templates, writes, interval, &slab));
        for _ in 0..DRAIN_THREADS {
            scope.spawn(|| {
                while finished.load(Ordering::Acquire) < subscribers {
                    let Some(token) = dispatcher.next_ready(std::time::Duration::from_millis(20))
                    else {
                        continue;
                    };
                    let (subscriber, done, samples) = &watchers[token];
                    if done.load(Ordering::Acquire) {
                        continue;
                    }
                    // Hot-set churn coalesces well inside the queue bound,
                    // so eviction cannot fire here; Err is terminal either
                    // way and the watcher just stops counting.
                    let Ok(events) = subscriber.try_recv() else {
                        if !done.swap(true, Ordering::AcqRel) {
                            finished.fetch_add(1, Ordering::AcqRel);
                        }
                        continue;
                    };
                    let mut saw_final = false;
                    for event in &events {
                        delivered.fetch_add(1, Ordering::Relaxed);
                        if token % stride == 0 {
                            if let Some(nanos) = slab.latency(event.revision) {
                                samples.lock().unwrap().push(nanos);
                            }
                        }
                        saw_final |= event.revision >= final_revision;
                    }
                    if saw_final && !done.swap(true, Ordering::AcqRel) {
                        finished.fetch_add(1, Ordering::AcqRel);
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let mut samples: Vec<u64> = watchers
        .iter()
        .flat_map(|(_, _, s)| s.lock().unwrap().clone())
        .collect();
    CurvePoint {
        threads: subscribers,
        // Push delivery issues no polling traffic: the writer's upserts
        // are the only requests in the measured window.
        req_per_sec: writes as f64 / elapsed,
        events_per_sec: delivered.load(Ordering::Relaxed) as f64 / elapsed,
        p50_us: percentile_us(&mut samples, 0.50),
        p99_us: percentile_us(&mut samples, 0.99),
    }
}

/// Poll delivery: N cursors advanced by full watch requests, round-robined
/// from [`DRAIN_THREADS`] pollers — every poll is a complete server
/// round-trip whether or not events are pending.
fn measure_poll(server: &ApiServer, subscribers: usize) -> CurvePoint {
    let writes = writes_for(subscribers);
    let interval = write_interval(subscribers);
    let templates = hot_set();
    for template in &templates {
        server.store().upsert(template.clone());
    }
    let base = server.store().revision();
    let final_revision = base + writes as u64;
    let slab = StampSlab::new(base, writes);
    let stride = (subscribers / LATENCY_SAMPLE_SUBS).max(1);

    let delivered = AtomicU64::new(0);
    let polls = AtomicU64::new(0);
    let all_samples = Mutex::new(Vec::<u64>::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| run_writer(server.store(), &templates, writes, interval, &slab));
        let (slab, delivered, polls, all_samples) = (&slab, &delivered, &polls, &all_samples);
        for poller in 0..DRAIN_THREADS {
            scope.spawn(move || {
                // Static partition: this poller owns every DRAIN_THREADSth
                // watcher, so cursors need no cross-thread sharing.
                let mut cursors: Vec<(usize, u64)> = (poller..subscribers)
                    .step_by(DRAIN_THREADS)
                    .map(|token| (token, base))
                    .collect();
                let mut samples = Vec::new();
                while !cursors.is_empty() {
                    cursors.retain_mut(|(token, cursor)| {
                        polls.fetch_add(1, Ordering::Relaxed);
                        let response =
                            server.handle(&ApiRequest::watch(USER, KIND, NAMESPACE, Some(*cursor)));
                        let Some((events, resume)) =
                            response.body.as_ref().and_then(|b| b.watch_events())
                        else {
                            return false;
                        };
                        for event in events {
                            if event.object.is_none() {
                                continue; // bookmark
                            }
                            delivered.fetch_add(1, Ordering::Relaxed);
                            if *token % stride == 0 {
                                if let Some(nanos) = slab.latency(event.revision) {
                                    samples.push(nanos);
                                }
                            }
                        }
                        *cursor = resume;
                        *cursor < final_revision
                    });
                }
                all_samples.lock().unwrap().extend(samples);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let mut samples = all_samples.into_inner().unwrap();
    CurvePoint {
        threads: subscribers,
        req_per_sec: (writes as u64 + polls.load(Ordering::Relaxed)) as f64 / elapsed,
        events_per_sec: delivered.load(Ordering::Relaxed) as f64 / elapsed,
        p50_us: percentile_us(&mut samples, 0.50),
        p99_us: percentile_us(&mut samples, 0.99),
    }
}

fn row(mix: &str, point: &CurvePoint) {
    println!(
        "{mix:<5} {:>6} subs  {:>10.0} req/s  {:>11.0} events/s   p50 {:>10.1} µs   p99 {:>12.1} µs",
        point.threads, point.req_per_sec, point.events_per_sec, point.p50_us, point.p99_us,
    );
}

fn output_path(smoke: bool) -> PathBuf {
    if let Ok(path) = std::env::var("KF_BENCH_JSON_OUT") {
        return PathBuf::from(path);
    }
    if smoke {
        BenchArtifact::repo_root_path("target/BENCH_watchfanout.smoke.json")
    } else {
        BenchArtifact::repo_root_path("BENCH_watchfanout.json")
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
    println!("\n=== Watch fan-out: push-notify fabric vs poll delivery ===");
    println!(
        "({} hot objects, {} drain threads, tiers {:?}; delivery latency sampled on ≤{} watchers)",
        HOT_SET,
        DRAIN_THREADS,
        tiers(),
        LATENCY_SAMPLE_SUBS
    );

    let mut artifact = BenchArtifact::new("watch_fanout", if smoke { "smoke" } else { "full" });
    for mix in ["push", "poll"] {
        println!("\n--- {mix} delivery ---");
        let mut points = Vec::new();
        for subscribers in tiers() {
            let server = ApiServer::new().with_admin(USER);
            let point = if mix == "push" {
                measure_push(&server, subscribers)
            } else {
                measure_poll(&server, subscribers)
            };
            row(mix, &point);
            points.push(point);
        }
        artifact.curves.push(ScalingCurve {
            backend: "zero-copy".to_owned(),
            mix: mix.to_owned(),
            axis: "subscribers".to_owned(),
            points,
        });
    }

    // Push-vs-poll contrast per tier, for the human table.
    println!();
    let push = artifact.curve("zero-copy", "push").expect("measured");
    let poll = artifact.curve("zero-copy", "poll").expect("measured");
    for (p, q) in push.points.iter().zip(&poll.points) {
        println!(
            "{:>6} subs  {:>7.2}x events/s  {:>8.2}x better p99 (push vs poll)",
            p.threads,
            p.events_per_sec / q.events_per_sec.max(1e-9),
            q.p99_us / p.p99_us.max(1e-9),
        );
    }

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
