//! Validate-while-parse vs tree-parse-then-validate on raw wire bytes, for
//! **both wire formats** (YAML and JSON).
//!
//! The streaming admission plane (`kubefence::stream`) tokenizes a raw
//! request body once and advances compiled-arena matchers as events arrive,
//! allocating no document tree on the accept path and synthesizing denial
//! reports from matcher state (no re-parse). This benchmark holds the
//! *validation* plane constant (both paths check against the same compiled
//! arenas) and varies only the *parsing* strategy:
//!
//! * **streaming** — `ValidatorSet::validate_raw_format`: validate while
//!   tokenizing;
//! * **tree** — `ValidatorSet::validate_raw_tree_format`: parse the full
//!   document into a `Value` tree, then validate it (the reference
//!   semantics).
//!
//! Three traffic classes per format are replayed from 1, 4 and 8 threads:
//!
//! * **accept** — every operator's legitimate manifests (the common case);
//! * **deny-early** — the attack catalog's malicious manifests (the denial
//!   is decided at the first fatal violation and the report comes from
//!   matcher state, without a re-parse);
//! * **unparsable** — truncated/corrupted payloads (the stream rejects at
//!   the defect; the tree path pays a full failed parse).
//!
//! A proxy-level run (the EnforcementProxy over a raw `ThroughputDriver`
//! pool) closes the loop end-to-end. Passing `--smoke`
//! (or `KF_BENCH_SMOKE=1`) runs a tiny fixed configuration so CI can
//! execute the harness on every push.

use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};

use k8s_apiserver::ApiServer;
use kf_attacks::AttackExecutor;
use kf_bench::{replay_requests, validator_for};
use kf_workloads::{DeploymentDriver, Operator, ThroughputDriver};
use kubefence::{BodyFormat, EnforcementProxy, ValidatorSet};

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const FULL_REQUESTS_PER_THREAD: usize = 2_000;

fn requests_per_thread() -> usize {
    replay_requests(FULL_REQUESTS_PER_THREAD)
}

fn validators() -> ValidatorSet {
    let mut set = ValidatorSet::new();
    for operator in Operator::ALL {
        set.push(validator_for(operator));
    }
    set
}

fn serialize(body: &kf_yaml::Value, format: BodyFormat) -> String {
    match format {
        BodyFormat::Json => kf_yaml::to_json(body),
        _ => kf_yaml::to_yaml(body),
    }
}

/// Every operator's legitimate manifests, as wire bytes of `format`.
fn accept_pool(format: BodyFormat) -> Vec<String> {
    Operator::ALL
        .iter()
        .flat_map(|operator| {
            DeploymentDriver::new(*operator)
                .objects()
                .iter()
                .map(|object| serialize(object.body(), format))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The attack catalog's malicious manifests, as wire bytes of `format`.
fn deny_pool(format: BodyFormat) -> Vec<String> {
    Operator::ALL
        .iter()
        .flat_map(|operator| {
            let driver = DeploymentDriver::new(*operator);
            AttackExecutor::new(
                &operator.user(),
                operator.namespace(),
                driver.objects().to_vec(),
            )
            .malicious_objects()
            .into_iter()
            .map(|(_spec, object)| serialize(object.body(), format))
            .collect::<Vec<_>>()
        })
        .collect()
}

/// Corrupted payloads: legitimate manifests truncated mid-token and with
/// structural damage — what malformed or hostile wire traffic looks like.
fn unparsable_pool(format: BodyFormat) -> Vec<String> {
    accept_pool(format)
        .into_iter()
        .enumerate()
        .map(|(i, text)| match (format, i % 3) {
            (BodyFormat::Json, 0) => text[..text.len() * 2 / 3].to_owned(),
            (BodyFormat::Json, 1) => text.replace("\":", "\""),
            (BodyFormat::Json, _) => format!("{text}{text}"),
            (_, 0) => text[..text.len() * 2 / 3].to_owned() + "\n  {truncated",
            (_, 1) => text.replace("kind:", "   kind:"),
            (_, _) => format!("{text}---\n{text}"),
        })
        .collect()
}

/// Replay `pool` from `threads` threads against one of the two raw paths;
/// returns sustained requests/sec and the admitted count (sanity).
fn replay(
    set: &ValidatorSet,
    pool: &[String],
    format: BodyFormat,
    threads: usize,
    streaming: bool,
) -> (f64, u64) {
    let per_thread = requests_per_thread();
    let admitted = AtomicU64::new(0);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let admitted = &admitted;
            scope.spawn(move || {
                let offset = thread * pool.len() / threads.max(1);
                let mut local = 0u64;
                for i in 0..per_thread {
                    let text = &pool[(offset + i) % pool.len()];
                    let verdict = if streaming {
                        set.validate_raw_format(text, format)
                    } else {
                        set.validate_raw_tree_format(text, format)
                    };
                    if verdict.is_admitted() {
                        local += 1;
                    }
                }
                admitted.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let total = (threads * per_thread) as f64;
    (total / elapsed, admitted.into_inner())
}

fn print_scaling_table() {
    let set = validators();
    println!("\n=== Streaming admission: validate-while-parse vs tree-parse-then-validate ===");
    for format in [BodyFormat::Yaml, BodyFormat::Json] {
        let pools: [(&str, Vec<String>); 3] = [
            ("accept", accept_pool(format)),
            ("deny-early", deny_pool(format)),
            ("unparsable", unparsable_pool(format)),
        ];
        for (label, pool) in &pools {
            println!(
                "\n--- {} {label} traffic ({} distinct payloads, {} requests/thread) ---",
                format.name(),
                pool.len(),
                requests_per_thread()
            );
            for threads in THREAD_COUNTS {
                let (stream_rps, stream_admitted) = replay(&set, pool, format, threads, true);
                let (tree_rps, tree_admitted) = replay(&set, pool, format, threads, false);
                assert_eq!(
                    stream_admitted, tree_admitted,
                    "verdict parity must hold under replay"
                );
                println!(
                    "{}/{label:<12} {threads} threads   streaming {stream_rps:>12.0} req/s   tree {tree_rps:>12.0} req/s   ({:.2}x)",
                    format.name(),
                    stream_rps / tree_rps.max(1e-9)
                );
            }
        }
    }
}

fn print_proxy_table() {
    println!("\n=== End-to-end: raw traffic through the proxy (8 threads) ===");
    let server = || {
        let mut server = ApiServer::new();
        for operator in Operator::ALL {
            server = server.with_admin(&operator.user());
        }
        server
    };
    for (label, driver) in [
        ("yaml", ThroughputDriver::for_operators_raw(&Operator::ALL)),
        (
            "json",
            ThroughputDriver::for_operators_raw_json(&Operator::ALL),
        ),
    ] {
        let streaming = EnforcementProxy::with_validators(server(), validators());
        let report = driver.run(&streaming, 8, requests_per_thread());
        println!(
            "{label} enforcement (streaming)      {:>12.0} req/s   p50 {:>9.1} µs   p99 {:>9.1} µs   ({} admitted / {} denied)",
            report.requests_per_sec(),
            report.p50.as_nanos() as f64 / 1e3,
            report.p99.as_nanos() as f64 / 1e3,
            report.admitted,
            report.denied,
        );
    }
}

fn bench(c: &mut Criterion) {
    print_scaling_table();
    print_proxy_table();
    if kf_bench::smoke_mode() {
        // Smoke mode proves the harness runs and prints real req/s; the
        // criterion micro-loops are skipped to keep the CI step fast.
        return;
    }
    // Criterion-tracked single-payload latency of both raw paths and both
    // formats, so regressions show up in per-iteration numbers as well.
    let set = validators();
    let mut group = c.benchmark_group("streaming_admission");
    for format in [BodyFormat::Yaml, BodyFormat::Json] {
        let accept = accept_pool(format);
        let deny = deny_pool(format);
        group.bench_function(format!("validate_raw_accept_{}", format.name()), |b| {
            b.iter(|| {
                for text in &accept {
                    criterion::black_box(set.validate_raw_format(text, format).is_admitted());
                }
            })
        });
        group.bench_function(format!("validate_raw_tree_accept_{}", format.name()), |b| {
            b.iter(|| {
                for text in &accept {
                    criterion::black_box(set.validate_raw_tree_format(text, format).is_admitted());
                }
            })
        });
        group.bench_function(format!("validate_raw_deny_{}", format.name()), |b| {
            b.iter(|| {
                for text in &deny {
                    criterion::black_box(set.validate_raw_format(text, format).is_admitted());
                }
            })
        });
        group.bench_function(format!("validate_raw_tree_deny_{}", format.name()), |b| {
            b.iter(|| {
                for text in &deny {
                    criterion::black_box(set.validate_raw_tree_format(text, format).is_admitted());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
