//! Watch-driven reconcile end-to-end through the full API server
//! (RBAC → admission → store+journal → audit).
//!
//! `Verb::Watch` is a real incremental event stream over store revisions,
//! so an informer that has seeded its cache pays only for the deltas since
//! its cursor.
//!
//! The [`kf_workloads::InformerDriver`] replays the `WATCH_HEAVY` mix
//! (2 creates : 1 get : 1 list : 12 reconcile ticks per cycle) from 1, 4
//! and 8 threads against [`k8s_apiserver::ObjectStore`], whose delivered
//! events share the stored trees. Every user is subject to a learned RBAC
//! policy (audit2rbac over an attack-free replay **including watch
//! traffic**), so the hardened surface genuinely covers the watch verb.
//! Passing `--smoke` (or `KF_BENCH_SMOKE=1`) runs a tiny fixed
//! configuration so CI can execute the harness per push.

use criterion::{criterion_group, criterion_main, Criterion};

use k8s_apiserver::{ApiServer, RequestHandler};
use k8s_rbac::{audit2rbac, Audit2RbacOptions, RbacPolicySet};
use kf_bench::replay_requests;
use kf_workloads::{InformerDriver, MixRatio, Operator, ReconcileReport};

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const FULL_CYCLES_PER_THREAD: usize = 120;

/// Collection scale: every chart object replicated this many times, so a
/// watched collection holds tens of objects — the populated-cluster regime
/// where delta streaming pays off.
const COLLECTION_SCALE: usize = 24;

fn cycles_per_thread() -> usize {
    // Reuse the shared smoke scaling; cycles are ~16 requests each, so the
    // full run replays ~2k requests per thread.
    replay_requests(FULL_CYCLES_PER_THREAD)
}

/// Learn one RBAC policy covering every operator's watch-heavy traffic:
/// seed + replay the mixed pool (create/get/list **and** watch) against a
/// permissive learning server, then audit2rbac per user and merge — the
/// paper's baseline-hardening recipe, extended to the watch verb.
fn learned_policy(driver: &InformerDriver) -> RbacPolicySet {
    let mut learning = ApiServer::new();
    for operator in Operator::ALL {
        learning = learning.with_admin(&operator.user());
    }
    driver.seed(&learning);
    for request in driver.background_pool() {
        learning.handle(request);
    }
    for (user, kind, namespace) in driver.targets() {
        learning.handle(&k8s_apiserver::ApiRequest::watch(
            user, *kind, namespace, None,
        ));
    }
    let log = learning.audit_log();
    let mut merged = RbacPolicySet::new();
    for operator in Operator::ALL {
        let policy = audit2rbac(
            log.events(),
            &operator.user(),
            &Audit2RbacOptions::default(),
        );
        for role in policy.roles() {
            merged.add_role(role.clone());
        }
        for binding in policy.bindings() {
            merged.add_binding(binding.clone());
        }
    }
    merged
}

/// A server guarded by the learned policy and pre-seeded so reconciles and
/// reads hit a populated collection from the first tick.
fn prepared_server(policy: &RbacPolicySet, driver: &InformerDriver) -> ApiServer {
    let server = ApiServer::new();
    driver.seed(&server);
    server.set_rbac_policy(Some(policy.clone()));
    server
}

fn row(label: &str, report: &ReconcileReport) {
    println!(
        "{label:<28} {:>2} threads  {:>12.0} req/s  {:>12.0} events/s   ({} ticks, {} relists, {} cached)",
        report.threads,
        report.requests_per_sec(),
        report.events_per_sec(),
        report.reconcile_ticks,
        report.relists,
        report.cached_objects,
    );
}

fn print_scaling_table() {
    let mix = MixRatio::WATCH_HEAVY;
    let driver = InformerDriver::with_scale(&Operator::ALL, mix, COLLECTION_SCALE);
    let policy = learned_policy(&driver);
    println!("\n=== Watch throughput: watch-driven reconcile ===");
    println!(
        "({} mix over {} watched collections at scale {COLLECTION_SCALE}; {} cycles/thread; full server per request)",
        mix.label(),
        driver.targets().len(),
        cycles_per_thread()
    );
    for threads in THREAD_COUNTS {
        let server = prepared_server(&policy, &driver);
        let report = driver.run(&server, threads, cycles_per_thread());
        assert!(
            report.cached_objects > 0,
            "reconciles must converge to live caches"
        );
        row("watch-delta/zero-copy", &report);
    }
}

fn bench(c: &mut Criterion) {
    print_scaling_table();
    if kf_bench::smoke_mode() {
        // Smoke mode proves the harness runs and prints real req/s and
        // events/s; the criterion micro-loops are skipped to keep CI fast.
        return;
    }
    // Criterion-tracked reconcile latency, so regressions show up
    // per-iteration as well.
    let driver =
        InformerDriver::with_scale(&Operator::ALL, MixRatio::WATCH_HEAVY, COLLECTION_SCALE);
    let policy = learned_policy(&driver);
    let mut group = c.benchmark_group("watch_throughput");
    let server = prepared_server(&policy, &driver);
    group.bench_function("reconcile_watch_delta", |b| {
        b.iter(|| criterion::black_box(driver.run(&server, 1, 4).total_requests))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
