//! Concurrency scaling of the enforcement plane (Table IV, heavy-traffic
//! extension): mixed legitimate/attack traffic replayed from 1, 4 and 8
//! threads against the compiled proxy — flat-arena validators, kind-indexed
//! routing, atomic statistics, sharded denial ring ([`EnforcementProxy`]) —
//! in front of the sharded in-memory API server. For every thread count the
//! sustained requests/sec and the p50/p99 per-request latency are reported.

use criterion::{criterion_group, criterion_main, Criterion};

use k8s_apiserver::ApiServer;
use kf_bench::{replay_requests, validator_for};
use kf_workloads::{Operator, ThroughputDriver, ThroughputReport};
use kubefence::{EnforcementProxy, ValidatorSet};

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const FULL_REQUESTS_PER_THREAD: usize = 2_000;

fn requests_per_thread() -> usize {
    // `--smoke` / KF_BENCH_SMOKE=1 shrinks the replay so CI can execute the
    // harness (and print real req/s) on every push.
    replay_requests(FULL_REQUESTS_PER_THREAD)
}

fn validators() -> ValidatorSet {
    let mut set = ValidatorSet::new();
    for operator in Operator::ALL {
        set.push(validator_for(operator));
    }
    set
}

fn server() -> ApiServer {
    let mut server = ApiServer::new();
    for operator in Operator::ALL {
        server = server.with_admin(&operator.user());
    }
    server
}

fn row(label: &str, report: &ThroughputReport) {
    println!(
        "{label:<28} {:>2} threads  {:>12.0} req/s   p50 {:>9.1} µs   p99 {:>9.1} µs   ({} admitted / {} denied)",
        report.threads,
        report.requests_per_sec(),
        report.p50.as_nanos() as f64 / 1e3,
        report.p99.as_nanos() as f64 / 1e3,
        report.admitted,
        report.denied,
    );
}

fn print_scaling_table() {
    println!("\n=== Concurrency scaling: compiled admission plane ===");
    println!(
        "(mixed traffic from all {} operators: {} requests/pool, {} per thread)\n",
        Operator::ALL.len(),
        ThroughputDriver::for_operators(&Operator::ALL)
            .requests()
            .len(),
        requests_per_thread()
    );
    let driver = ThroughputDriver::for_operators(&Operator::ALL);
    for threads in THREAD_COUNTS {
        let compiled = EnforcementProxy::with_validators(server(), validators());
        let report = driver.run(&compiled, threads, requests_per_thread());
        row("compiled + atomic proxy", &report);
    }
}

fn bench(c: &mut Criterion) {
    print_scaling_table();
    if kf_bench::smoke_mode() {
        // Smoke mode proves the harness runs; skip the criterion loops.
        return;
    }
    // Criterion-tracked single-request latency of both validation planes, so
    // regressions show up in the per-iteration numbers as well.
    let driver = ThroughputDriver::for_operator(Operator::Sonarqube);
    let validators = ValidatorSet::single(validator_for(Operator::Sonarqube));
    let objects: Vec<_> = driver
        .requests()
        .iter()
        .filter_map(|request| request.object())
        .collect();
    let mut group = c.benchmark_group("concurrency");
    group.bench_function("validate_pool_compiled", |b| {
        b.iter(|| {
            for object in &objects {
                criterion::black_box(validators.validate(object).is_ok());
            }
        })
    });
    group.bench_function("validate_pool_tree_scan", |b| {
        b.iter(|| {
            for object in &objects {
                criterion::black_box(validators.validate_tree_scan(object).is_ok());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
