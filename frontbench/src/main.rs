//! Front-door benchmark for the KubeFence reproduction.
//!
//! Drives seeded workloads through `EnforcementProxy<ApiServer<ObjectStore>>`
//! — streaming admission with the five operators' Helm-learned validators,
//! an audit2rbac-learned RBAC policy, and a durable store under group
//! commit — and checks every response against the verdict its request
//! carries.
//!
//! ```text
//! cargo run --release --offline --manifest-path frontbench/Cargo.toml -- \
//!     --workload fenced-apply --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the per-layer metrics of a traced run (see `DESIGN.md`).
//! Latencies are those of the machine the run is on, not of any device.

mod drive;
mod gen;
mod report;
mod setup;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use helm_lite::Chart;
use k8s_apiserver::{ApiRequest, ApiServer, ObjectStore, StoreBackend, WatchDispatcher};
use k8s_model::ResourceKind;
use kf_workloads::Operator;

use drive::{Checks, Drain, Subscriber, Tally, CLASS_GET, CLASS_WRITE, PLAIN, STOP, TRACED};
use gen::{Corpus, Op, Workload, TENANTS_PER_OPERATOR};
use report::{median_f64, metric, percentile, Metric};
use setup::{Stack, Upstream};
use trace::TracedServer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopenings of the seeded crash image per run; `restart_s` is their
/// median.
const RESTARTS: usize = 7;
/// Closed-loop clients of `fenced-apply` and `informer-read`.
const CLIENTS: u64 = 2;
/// Generated requests per client stream (streams are replayed cyclically).
const STREAM_LEN: usize = 40_000;
/// Push subscribers of `watch-fanout`.
const SUBSCRIBERS: usize = 2_000;
/// Open-loop write rate of `watch-fanout`, per second.
const WRITE_RATE: f64 = 400.0;
/// A traced run alternates untraced and traced slices of its window.
const TRACE_SLICES: u32 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("frontbench: {e}");
            eprintln!(
                "usage: --workload fenced-apply|informer-read|watch-fanout --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let ok = if args.trace {
        run::<TracedServer>(&args)
    } else {
        run::<ApiServer<ObjectStore>>(&args)
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Number of per-second buckets a window of `seconds` is split into.
fn buckets_of(seconds: f64) -> usize {
    (seconds.floor() as usize).max(1)
}

/// The clock of one window, as the main thread ran it.
struct Phases {
    start_ns: u64,
    /// Seconds spent untraced and traced.
    spent: [f64; 2],
    /// Process CPU seconds at the start and at the end of every bucket.
    cpu: Vec<f64>,
}

/// Run the window in per-second buckets: all untraced, or alternating
/// untraced and traced slices of [`TRACE_SLICES`]. Reads the process CPU
/// time at every bucket boundary.
fn run_phases(phase: &AtomicU8, seconds: f64, traced: bool) -> Phases {
    let n = buckets_of(seconds);
    let bucket = Duration::from_secs_f64(seconds / n as f64);
    let started = Instant::now();
    let start_ns = trace::now_ns();
    let mut spent = [0.0; 2];
    let mut cpu = vec![report::cpu_seconds()];
    for i in 0..n {
        let slice = i * TRACE_SLICES as usize / n;
        let mode = if traced && slice % 2 == 1 {
            TRACED
        } else {
            PLAIN
        };
        phase.store(mode, Ordering::Release);
        let t = Instant::now();
        if let Some(rest) = (bucket * (i as u32 + 1)).checked_sub(started.elapsed()) {
            std::thread::sleep(rest);
        }
        cpu.push(report::cpu_seconds());
        spent[mode as usize] += t.elapsed().as_secs_f64();
    }
    phase.store(STOP, Ordering::Release);
    Phases {
        start_ns,
        spent,
        cpu,
    }
}

/// What the window of one workload produced.
struct Window {
    tally: Tally,
    drain: Drain,
    phases: Phases,
    threads: Vec<Vec<trace::Span>>,
    /// watch-fanout: subscribers per write's collection, summed.
    fanout: u64,
    coalesced: u64,
    evicted: u64,
    subscriber_failures: u64,
    subscribers: usize,
}

fn closed_window<U: Upstream>(
    stack: &Stack<U>,
    streams: &[Vec<Op>],
    checks: &Checks,
    seconds: f64,
    traced: bool,
    primary: u64,
) -> Window {
    let phase = AtomicU8::new(PLAIN);
    let (tallies, phases) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let phase = &phase;
                scope.spawn(move || {
                    drive::closed_loop(&stack.proxy, ops, checks, phase, c as u64, primary)
                })
            })
            .collect();
        let phases = run_phases(&phase, seconds, traced);
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (tallies, phases)
    });
    let mut tally = Tally::default();
    let mut threads = Vec::new();
    for mut t in tallies {
        threads.push(std::mem::take(&mut t.spans));
        tally.merge(t);
    }
    Window {
        tally,
        drain: Drain::default(),
        phases,
        threads,
        fanout: 0,
        coalesced: 0,
        evicted: 0,
        subscriber_failures: 0,
        subscribers: 0,
    }
}

fn fanout_window<U: Upstream>(
    stack: &Stack<U>,
    corpus: &Corpus,
    ops: &[Op],
    checks: &Checks,
    seconds: f64,
    traced: bool,
) -> Window {
    let mut collections: Vec<(usize, usize, ResourceKind)> = Vec::new();
    for (operator, tenant) in gen::hot_tenants(corpus) {
        for kind in &corpus.operators[operator].kinds {
            collections.push((operator, tenant, *kind));
        }
    }
    let dispatcher = WatchDispatcher::new();
    let mut subscribers = Vec::with_capacity(SUBSCRIBERS);
    let mut per_collection: HashMap<(ResourceKind, String), u64> = HashMap::new();
    let mut attach_failures = 0u64;
    for i in 0..SUBSCRIBERS {
        let (operator, tenant, kind) = collections[i % collections.len()];
        let namespace = corpus.namespace(operator, tenant);
        let request = ApiRequest::watch(&corpus.operators[operator].user, kind, &namespace, None);
        let Ok(push) = stack.proxy.upstream().subscribe_push(&request) else {
            attach_failures += 1;
            continue;
        };
        let last = push
            .initial
            .iter()
            .filter(|e| e.object.is_some())
            .map(|e| (e.name.clone(), e.revision))
            .collect();
        dispatcher.register(&push.subscriber, subscribers.len());
        *per_collection.entry((kind, namespace.clone())).or_default() += 1;
        subscribers.push(Subscriber {
            last_revision: push.subscriber.resume(),
            handle: push.subscriber,
            kind,
            namespace,
            last,
            out_of_order: 0,
            evicted: false,
        });
    }

    let phase = AtomicU8::new(PLAIN);
    let done = AtomicBool::new(false);
    let (writer, drain, phases) = std::thread::scope(|scope| {
        let (phase, done, dispatcher) = (&phase, &done, &dispatcher);
        let subs = &mut subscribers;
        let writer = scope
            .spawn(move || drive::open_loop_writer(&stack.proxy, ops, checks, phase, WRITE_RATE));
        let drainer = scope.spawn(move || drive::drain(dispatcher, subs, phase, done));
        let phases = run_phases(phase, seconds, traced);
        let writer = writer.join().expect("writer thread panicked");
        done.store(true, Ordering::Release);
        let drain = drainer.join().expect("drain thread panicked");
        (writer, drain, phases)
    });

    let (mut tally, mut drain) = (writer, drain);
    let fanout = tally
        .acked
        .iter()
        .map(|&(id, _)| {
            let key = corpus.key(id as usize);
            let kind = corpus.operators[key.operator].templates[key.template].kind;
            per_collection
                .get(&(kind, corpus.namespace(key.operator, key.tenant)))
                .copied()
                .unwrap_or(0)
        })
        .sum();
    let evicted = subscribers.iter().filter(|s| s.evicted).count() as u64;
    let coalesced = subscribers.iter().map(|s| s.handle.coalesced()).sum();
    let subscriber_failures =
        drive::subscriber_mismatches(&stack.proxy, &subscribers) + attach_failures;
    let threads = vec![
        std::mem::take(&mut tally.spans),
        std::mem::take(&mut drain.spans),
    ];
    Window {
        tally,
        drain,
        phases,
        threads,
        fanout,
        coalesced,
        evicted,
        subscriber_failures,
        subscribers: SUBSCRIBERS,
    }
}

fn run<U: Upstream>(args: &Args) -> bool {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = root.join("out");
    std::fs::create_dir_all(&out_dir).expect("the output directory is writable");
    let workload = args.workload;
    let seed = args.seed;

    // Inputs, from the seed, before anything is timed.
    let corpus = Corpus::build(TENANTS_PER_OPERATOR);
    let charts: Vec<Chart> = Operator::ALL.iter().map(|o| o.chart()).collect();
    let seeding = corpus.seeding(seed);
    let mut streams: Vec<Vec<Op>> = match workload {
        Workload::FencedApply => (0..CLIENTS)
            .map(|c| gen::fenced_apply_stream(&corpus, seed, c, STREAM_LEN))
            .collect(),
        Workload::InformerRead => (0..CLIENTS)
            .map(|c| gen::informer_read_stream(&corpus, seed, c, STREAM_LEN))
            .collect(),
        Workload::WatchFanout => vec![gen::watch_fanout_stream(&corpus, seed, STREAM_LEN)],
    };

    // Set-up, several times; the last one serves the window.
    let dir: PathBuf = out_dir.join(format!("store-{}-{}", workload.name(), std::process::id()));
    let mut times = Vec::new();
    let mut failed = 0u64;
    let mut stack = None;
    for k in 0..SETUPS {
        let s = setup::setup::<U>(&corpus, &charts, &seeding, &dir);
        times.push(s.times);
        failed += s.seed_failures;
        if k + 1 == SETUPS {
            stack = Some(s);
        }
    }
    let mut stack = stack.expect("at least one set-up");
    let setup_s = median_f64(&times.iter().map(|t| t.total_s).collect::<Vec<_>>());
    // The window's memory growth is dominated by the server's in-memory
    // audit log, which keeps every request's body: it scales with
    // throughput times run length, so the footprint is read here.
    let setup_rss_mb = report::peak_rss_mb();
    // A crash image of the seeded store: `restart_s` reopens it, so the
    // restart is timed on the same state in every run and workload.
    let seeded =
        setup::expected_state(&corpus, stack.proxy.upstream().object_store(), &stack.acked);
    failed += seeded.mismatches;
    let image = out_dir.join(format!("image-{}-{}", workload.name(), std::process::id()));
    setup::copy_dir(&stack.dir, &image).expect("the seeded store copies");

    let checks = Checks {
        stored: seeded
            .state
            .iter()
            .map(|s| s.as_ref().map(|(_, body)| std::sync::Arc::clone(body)))
            .collect(),
        collections: corpus
            .collections()
            .into_iter()
            .map(|c| gen::collection_revisions(&corpus, &stack.acked, c))
            .collect(),
    };
    for ops in &mut streams {
        gen::resolve_cursors(ops, &checks.collections);
    }

    // The window.
    let proxy_before = stack.proxy.stats();
    let durability_before = StoreBackend::durability(stack.proxy.upstream().object_store());
    let bytes_before = setup::dir_bytes(&stack.dir);
    let denials_before = stack.proxy.denials().len() as u64 + stack.proxy.dropped_denials();
    let window = match workload {
        Workload::FencedApply => closed_window(
            &stack,
            &streams,
            &checks,
            args.seconds,
            args.trace,
            CLASS_WRITE,
        ),
        Workload::InformerRead => closed_window(
            &stack,
            &streams,
            &checks,
            args.seconds,
            args.trace,
            CLASS_GET,
        ),
        Workload::WatchFanout => fanout_window(
            &stack,
            &corpus,
            &streams[0],
            &checks,
            args.seconds,
            args.trace,
        ),
    };
    let proxy_after = stack.proxy.stats();
    let durability_after = StoreBackend::durability(stack.proxy.upstream().object_store());
    let bytes_after = setup::dir_bytes(&stack.dir);
    let tally = &window.tally;

    // Every observed proxy denial must have left a denial record.
    let denied = proxy_after.denied - proxy_before.denied;
    let records = stack.proxy.denials();
    let recorded = records.len() as u64 + stack.proxy.dropped_denials() - denials_before;
    failed += tally.failed
        + denied.abs_diff(tally.denies)
        + recorded.abs_diff(tally.denies)
        + records.iter().filter(|r| r.violations.is_empty()).count() as u64
        + window.evicted
        + window.subscriber_failures;
    let attempted = tally.attempted + window.subscribers as u64;

    for &(id, rv) in &tally.acked {
        let slot = &mut stack.acked[id as usize];
        *slot = (*slot).max(rv);
    }
    stack.acked_body_bytes += tally.acked_body_bytes;
    let writes = tally.acked.len() as u64;
    let final_state =
        setup::expected_state(&corpus, stack.proxy.upstream().object_store(), &stack.acked);
    let space_amp = setup::dir_bytes(&stack.dir) as f64 / stack.acked_body_bytes.max(1) as f64;
    let run_dir = stack.dir.clone();
    drop(stack);
    let restart = setup::reopen_image(&corpus, &image, &seeded, RESTARTS);
    let recovery = setup::reopen(&corpus, &run_dir, &final_state);
    std::fs::remove_dir_all(&run_dir).ok();
    failed += final_state.mismatches + restart.mismatches + recovery.mismatches;
    // Per key: every set-up's create, the seeded and final live-store
    // checks, every reopening of the crash image, and the final reopen.
    let per_key = (SETUPS + 2 + RESTARTS + 1) as u64;
    let attempted = attempted + per_key * corpus.key_count() as u64;
    let error_rate = failed as f64 / attempted.max(1) as f64;

    // Untraced latencies and throughput, per second of the window; each
    // reported figure is the median of the per-second ones.
    let delivery: Vec<(u64, u64)> = if workload == Workload::WatchFanout {
        // Delivery: from the write's send to its event being drained.
        let sent: HashMap<u64, u64> = tally.sent.iter().copied().collect();
        window
            .drain
            .delivered
            .iter()
            .filter_map(|&(rv, at)| sent.get(&rv).map(|s| (at, at.saturating_sub(*s))))
            .collect()
    } else {
        Vec::new()
    };
    // Fan-out: from the first watcher taking a write's event to each other
    // watcher taking it. Unlike delivery, it leaves out the drain thread's
    // wake-up, which on a shared virtual machine the host's scheduler sets.
    let fanout: Vec<(u64, u64)> = {
        let mut first: HashMap<u64, u64> = HashMap::new();
        for &(rv, at) in &window.drain.delivered {
            let slot = first.entry(rv).or_insert(at);
            *slot = (*slot).min(at);
        }
        window
            .drain
            .delivered
            .iter()
            .map(|&(rv, at)| (at, at - first[&rv]))
            .collect()
    };
    let requests: Vec<(u64, u64)> = if workload == Workload::WatchFanout {
        tally.primary_ns.clone()
    } else {
        tally
            .primary_ns
            .iter()
            .chain(&tally.secondary_ns)
            .copied()
            .collect()
    };
    // The class the gated latencies describe: one whose path has no fsync
    // in it (see DESIGN.md).
    let gated_samples = match workload {
        Workload::FencedApply => &tally.secondary_ns,
        Workload::InformerRead => &requests,
        Workload::WatchFanout => &fanout,
    };
    let phases = &window.phases;
    let seconds_n = buckets_of(args.seconds);
    let window_ns = (args.seconds * 1e9) as u64;
    let per_second =
        |samples: &[(u64, u64)]| report::buckets(samples, phases.start_ns, window_ns, seconds_n);
    let gated = per_second(gated_samples);
    let writes_ps = per_second(if workload == Workload::InformerRead {
        &[]
    } else {
        &tally.primary_ns
    });
    let completed = per_second(&requests);
    let bucket_s = args.seconds / seconds_n as f64;
    let throughput = report::bucket_median(&completed, |b| b.len() as f64 / bucket_s);
    let pct = |pct: f64| move |b: &[u64]| percentile(b, pct) as f64 / 1e3;
    let ng = gated_samples.len() as u64;
    let us = |ns: u64| ns as f64 / 1e3;
    let plain_rps = tally.completed[0] as f64 / phases.spent[0];
    // CPU per request, per second of the window.
    let cpu_per_req: Vec<f64> = completed
        .iter()
        .zip(phases.cpu.windows(2))
        .map(|(b, cpu)| (cpu[1] - cpu[0]) * 1e6 / b.len().max(1) as f64)
        .collect();
    let quiet = |buckets: &[Vec<u64>], p: f64| {
        report::quiet_quartile(&buckets.iter().map(|b| pct(p)(b)).collect::<Vec<_>>())
    };

    let metrics: Vec<Metric> = if !args.trace {
        vec![
            metric("setup_s", setup_s, "s", Some(SETUPS as u64)),
            metric(
                "cpu_us_per_req",
                report::quiet_quartile(&cpu_per_req),
                "us",
                Some(requests.len() as u64),
            ),
            metric("p50_us", quiet(&gated, 50.0), "us", Some(ng)),
            metric("p90_us", quiet(&gated, 90.0), "us", Some(ng)),
            metric("restart_s", restart.seconds, "s", Some(RESTARTS as u64)),
            metric("space_amp", space_amp, "ratio", None),
            metric("peak_rss_mb", setup_rss_mb, "MiB", None),
        ]
    } else {
        let l = report::layers(&window.threads);
        let traced_rps = tally.completed[1] as f64 / phases.spent[1];
        let validated = (proxy_after.forwarded + proxy_after.denied)
            - (proxy_before.forwarded + proxy_before.denied);
        let batches = durability_after.fsync_batches - durability_before.fsync_batches;
        let grouped = durability_after.group_records - durability_before.group_records;
        let per_write = |v: f64| if writes == 0 { 0.0 } else { v / writes as f64 };
        let mut lag = tally.lag_ns.clone();
        lag.sort_unstable();
        let med =
            |f: fn(&setup::SetupTimes) -> f64| median_f64(&times.iter().map(f).collect::<Vec<_>>());
        let window_s = phases.spent[0] + phases.spent[1];
        let n = |m: &report::Mean| Some(m.n);
        vec![
            metric(
                "policy.generate_ms",
                med(|t| t.generate_ms),
                "ms",
                Some(SETUPS as u64),
            ),
            metric(
                "rbac.learn_ms",
                med(|t| t.learn_ms),
                "ms",
                Some(SETUPS as u64),
            ),
            metric(
                "setup.seed_ms",
                med(|t| t.seed_ms),
                "ms",
                Some(SETUPS as u64),
            ),
            metric(
                "rbac.policy_objects",
                times[0].policy_objects as f64,
                "count",
                None,
            ),
            metric(
                "proxy.self_admit_us",
                l.proxy_admit.us(),
                "us",
                n(&l.proxy_admit),
            ),
            metric(
                "proxy.self_deny_us",
                l.proxy_deny.us(),
                "us",
                n(&l.proxy_deny),
            ),
            metric(
                "proxy.validation_us",
                if validated == 0 {
                    0.0
                } else {
                    (proxy_after.validation_time_us - proxy_before.validation_time_us) as f64
                        / validated as f64
                },
                "us",
                Some(validated),
            ),
            metric(
                "proxy.forwarded",
                (proxy_after.forwarded - proxy_before.forwarded) as f64,
                "count",
                None,
            ),
            metric("proxy.denied", denied as f64, "count", None),
            metric(
                "proxy.passthrough",
                (proxy_after.passthrough - proxy_before.passthrough) as f64,
                "count",
                None,
            ),
            metric("server.forbidden", tally.forbidden as f64, "count", None),
            metric(
                "server.self_write_us",
                l.server_write.us(),
                "us",
                n(&l.server_write),
            ),
            metric(
                "server.self_read_us",
                l.server_read.us(),
                "us",
                n(&l.server_read),
            ),
            metric(
                "store.write_us",
                if l.store_write.is_empty() {
                    0.0
                } else {
                    l.store_write.iter().sum::<u64>() as f64 / l.store_write.len() as f64 / 1e3
                },
                "us",
                Some(l.store_write.len() as u64),
            ),
            metric(
                "store.write_p99_us",
                us(percentile(&l.store_write, 99.0)),
                "us",
                Some(l.store_write.len() as u64),
            ),
            metric("store.get_us", l.store_get.us(), "us", n(&l.store_get)),
            metric("store.list_us", l.store_list.us(), "us", n(&l.store_list)),
            metric(
                "store.list_items",
                l.list_items.us() * 1e3,
                "count",
                n(&l.list_items),
            ),
            metric(
                "store.events_since_us",
                l.events_since.us(),
                "us",
                n(&l.events_since),
            ),
            metric(
                "persist.fsyncs_per_write",
                per_write(batches as f64),
                "ratio",
                Some(writes),
            ),
            metric(
                "persist.avg_group_size",
                if batches == 0 {
                    0.0
                } else {
                    grouped as f64 / batches as f64
                },
                "records",
                Some(batches),
            ),
            metric(
                "persist.wal_bytes_per_write",
                per_write(bytes_after.saturating_sub(bytes_before) as f64),
                "B",
                Some(writes),
            ),
            metric(
                "persist.recovery_records",
                recovery.wal_records as f64,
                "count",
                None,
            ),
            metric(
                "watch.fanout_per_write",
                per_write(window.fanout as f64),
                "count",
                Some(writes),
            ),
            metric(
                "watch.events_per_drain",
                if window.drain.nonempty_drains == 0 {
                    0.0
                } else {
                    window.drain.delivered.len() as f64 / window.drain.nonempty_drains as f64
                },
                "count",
                Some(window.drain.nonempty_drains),
            ),
            metric("watch.drain_us", l.drain.us(), "us", n(&l.drain)),
            metric(
                "watch.dispatch_wait_us",
                l.dispatch_wait.us(),
                "us",
                n(&l.dispatch_wait),
            ),
            metric("watch.coalesced", window.coalesced as f64, "count", None),
            metric("watch.evicted", window.evicted as f64, "count", None),
            metric(
                "watch.events_per_s",
                window.drain.delivered.len() as f64 / window_s,
                "1/s",
                Some(window.drain.delivered.len() as u64),
            ),
            metric(
                "driver.lag_p99_us",
                us(percentile(&lag, 99.0)),
                "us",
                Some(lag.len() as u64),
            ),
            metric(
                "trace.overhead_pct",
                100.0 * (plain_rps - traced_rps) / plain_rps,
                "%",
                None,
            ),
            metric(
                "trace.residual_us",
                tally.residual_ns as f64 / tally.traced_requests.max(1) as f64 / 1e3,
                "us",
                Some(tally.traced_requests),
            ),
        ]
    };

    // Reconciliation: each traced request's layer self times must add up to
    // its client-observed latency within the stated bound.
    let reconciled =
        !args.trace || tally.unreconciled * 100 <= drive::UNRECONCILED_PCT * tally.traced_requests;
    let correct = failed == 0 && reconciled;

    // Context the gate does not use: the fsync-bound figures, tails, and
    // delivery including the drain thread's wake-up.
    let gated_class = match workload {
        Workload::FencedApply => "403 responses to attack bodies",
        Workload::InformerRead => "gets, lists and watch resumes",
        Workload::WatchFanout => "fan-out, first watcher to each watcher of a write",
    };
    let mut gated_all: Vec<u64> = gated.concat();
    gated_all.sort_unstable();
    let mut context = vec![
        metric("throughput_rps", throughput, "1/s", Some(seconds_n as u64)),
        metric("p99_us", us(percentile(&gated_all, 99.0)), "us", Some(ng)),
        metric("final_restart_s", recovery.seconds, "s", None),
        metric(
            "final_wal_records",
            recovery.wal_records as f64,
            "count",
            None,
        ),
        metric("peak_rss_end_mb", report::peak_rss_mb(), "MiB", None),
    ];
    if workload != Workload::InformerRead {
        let nw = tally.primary_ns.len() as u64;
        context.push(metric(
            "write_p50_us",
            report::bucket_median(&writes_ps, pct(50.0)),
            "us",
            Some(nw),
        ));
        context.push(metric(
            "write_p90_us",
            report::bucket_median(&writes_ps, pct(90.0)),
            "us",
            Some(nw),
        ));
    }
    if workload == Workload::WatchFanout {
        let delivered = per_second(&delivery);
        let nd = delivery.len() as u64;
        context.push(metric(
            "delivery_p50_us",
            report::bucket_median(&delivered, pct(50.0)),
            "us",
            Some(nd),
        ));
        context.push(metric(
            "delivery_p90_us",
            report::bucket_median(&delivered, pct(90.0)),
            "us",
            Some(nd),
        ));
    }
    println!(
        "frontbench {} seed={seed} seconds={} trace={} nproc={} fsync={}",
        workload.name(),
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        setup::FSYNC
    );
    let show = |m: &Metric| match m.samples {
        Some(n) => println!("  {:<28} {:>14.3} {:<6} (n={n})", m.name, m.value, m.unit),
        None => println!("  {:<28} {:>14.3} {}", m.name, m.value, m.unit),
    };
    if !args.trace {
        println!("  latency percentiles describe: {gated_class}");
    }
    metrics.iter().for_each(show);
    println!(
        "  error_rate                   {error_rate:>14.6} ratio ({failed} of {attempted} operations)"
    );
    if args.trace {
        println!(
            "  reconciled                   {} ({} of {} traced requests outside {} ns + {}% of latency; at most {}% may be)",
            reconciled,
            tally.unreconciled,
            tally.traced_requests,
            drive::RESIDUAL_FLOOR_NS,
            drive::RESIDUAL_SHARE * 100.0,
            drive::UNRECONCILED_PCT
        );
        let spans = out_dir.join(format!("spans-{}-seed{seed}.csv", workload.name()));
        if let Err(e) = trace::write_csv(&spans, &window.threads) {
            eprintln!("frontbench: writing {}: {e}", spans.display());
        }
    } else {
        println!("  context (not gated; writes wait on this machine's fsync):");
        context.iter().for_each(show);
    }

    // The untraced figures of a traced run cover only half its seconds, so
    // a traced run records no context.
    let per_second = if args.trace {
        context.clear();
        "{}".to_owned()
    } else {
        format!(
            "{{\"rps\": {:?}, \"p50_us\": {:?}, \"p90_us\": {:?}, \"cpu_us_per_req\": {:?}}}",
            completed
                .iter()
                .map(|b| b.len() as f64 / bucket_s)
                .collect::<Vec<_>>(),
            gated.iter().map(|b| pct(50.0)(b)).collect::<Vec<_>>(),
            gated.iter().map(|b| pct(90.0)(b)).collect::<Vec<_>>(),
            cpu_per_req,
        )
    };
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"git_rev\": {}, \"source_digest\": {}, \"flush_policy\": {}, \
         \"latency_source\": \"this machine's clock and disk, not a device's\", \
         \"latency_class\": {}, \
         \"sizes\": {{\"tenants_per_operator\": {}, \"objects\": {}, \"rbac_objects\": {}, \
         \"clients\": {}, \"subscribers\": {}, \"write_rate_per_s\": {}, \"setups\": {SETUPS}, \
         \"restarts\": {RESTARTS}, \"stream_len\": {STREAM_LEN}}}, \"error_rate\": {error_rate}, \
         \"correct\": {correct}, \"metrics\": {}, \"samples\": {}, \"context\": {}, \
         \"context_samples\": {}, \"per_second\": {per_second}}}",
        report::json_str(workload.name()),
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        report::json_str(&report::git_revision(root.parent().unwrap_or(root))),
        report::json_str(&report::source_digest(root.parent().unwrap_or(root))),
        report::json_str(setup::FSYNC),
        report::json_str(gated_class),
        TENANTS_PER_OPERATOR,
        corpus.key_count(),
        times[0].policy_objects,
        if workload == Workload::WatchFanout {
            1
        } else {
            CLIENTS
        },
        window.subscribers,
        if workload == Workload::WatchFanout {
            WRITE_RATE
        } else {
            0.0
        },
        report::metrics_json(&metrics),
        report::samples_json(&metrics),
        report::metrics_json(&context),
        report::samples_json(&context),
    );
    let meta_path = out_dir.join(format!(
        "result-{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&meta_path, format!("{meta}\n")) {
        eprintln!("frontbench: writing {}: {e}", meta_path.display());
    }
    println!("run: {meta}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report::metrics_json(&metrics)
    );
    correct
}
