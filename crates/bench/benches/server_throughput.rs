//! The zero-copy persistence plane end-to-end through the full API server
//! (RBAC → admission → store → audit).
//!
//! An accepted mutating request shares one `Arc<Value>` from the request
//! body through [`k8s_apiserver::ObjectStore`], the audit trail and every
//! subsequent read.
//!
//! Two deterministic mixed pools (`kf_workloads::MixRatio`) are replayed
//! from 1, 4 and 8 threads:
//!
//! * **write-heavy** (8 creates : 1 get : 1 list) — deployment churn,
//!   dominated by admission-to-store sharing;
//! * **read-heavy** (1 create : 8 gets : 1 list, the "operator reconcile"
//!   shape) — steady-state traffic, dominated by handle-returning reads.
//!
//! Every user is subject to a learned RBAC policy (audit2rbac over an
//! attack-free replay), so authorization is genuinely evaluated per
//! request. Passing `--smoke` (or `KF_BENCH_SMOKE=1`) runs a tiny fixed
//! configuration so CI can execute the harness on every push.

use criterion::{criterion_group, criterion_main, Criterion};

use k8s_apiserver::{ApiServer, RequestHandler};
use k8s_rbac::RbacPolicySet;
use kf_bench::{learned_mixed_policy, replay_requests};
use kf_workloads::{MixRatio, Operator, ThroughputDriver, ThroughputReport};

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const FULL_REQUESTS_PER_THREAD: usize = 2_000;

fn requests_per_thread() -> usize {
    replay_requests(FULL_REQUESTS_PER_THREAD)
}

/// The two measured traffic shapes.
fn mixes() -> [(&'static str, MixRatio); 2] {
    [
        ("write-heavy", MixRatio::WRITE_HEAVY),
        ("read-heavy", MixRatio::OPERATOR_RECONCILE),
    ]
}

/// A server guarded by the learned policy and pre-seeded so read traffic
/// hits stored objects from the first request.
fn prepared_server(policy: &RbacPolicySet, driver: &ThroughputDriver) -> ApiServer {
    let server = ApiServer::new();
    driver.seed(&server);
    server.set_rbac_policy(Some(policy.clone()));
    server
}

fn row(label: &str, report: &ThroughputReport) {
    println!(
        "{label:<26} {:>2} threads  {:>12.0} req/s   p50 {:>9.1} µs   p99 {:>9.1} µs   ({} admitted / {} denied)",
        report.threads,
        report.requests_per_sec(),
        report.p50.as_nanos() as f64 / 1e3,
        report.p99.as_nanos() as f64 / 1e3,
        report.admitted,
        report.denied,
    );
}

fn print_scaling_table() {
    println!("\n=== Server throughput: zero-copy persistence plane ===");
    println!(
        "(full ApiServer per request: RBAC -> admission -> store -> audit; {} requests/thread)",
        requests_per_thread()
    );
    for (label, mix) in mixes() {
        let driver = ThroughputDriver::for_operators_mixed(&Operator::ALL, mix);
        let policy = learned_mixed_policy(&driver);
        println!(
            "\n--- {label} mix ({}; {} requests in pool) ---",
            mix.label(),
            driver.requests().len()
        );
        for threads in THREAD_COUNTS {
            let server = prepared_server(&policy, &driver);
            let report = driver.run(&server, threads, requests_per_thread());
            assert_eq!(
                report.denied, 0,
                "seeded mixed traffic under the learned policy is fully authorized"
            );
            row(&format!("zero-copy/{label}"), &report);
        }
    }
}

fn bench(c: &mut Criterion) {
    print_scaling_table();
    if kf_bench::smoke_mode() {
        // Smoke mode proves the harness runs and prints real req/s; the
        // criterion micro-loops are skipped to keep the CI step fast.
        return;
    }
    // Criterion-tracked single-request latency under the read-heavy mix, so
    // regressions show up per-iteration as well.
    let driver =
        ThroughputDriver::for_operators_mixed(&Operator::ALL, MixRatio::OPERATOR_RECONCILE);
    let policy = learned_mixed_policy(&driver);
    let mut group = c.benchmark_group("server_throughput");
    let server = prepared_server(&policy, &driver);
    group.bench_function("read_heavy_zero_copy", |b| {
        b.iter(|| {
            for request in driver.requests() {
                criterion::black_box(server.handle(request).is_success());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
