//! Multi-threaded traffic replay against any [`RequestHandler`].
//!
//! The paper's overhead experiment (Table IV) measures single-client
//! deployment round trips. The [`ThroughputDriver`] extends that to the
//! ROADMAP's heavy-traffic regime: a fixed, reproducible pool of mixed
//! legitimate and attack requests is replayed concurrently from M threads
//! against a handler (the bare API server or the KubeFence proxy),
//! recording sustained requests/sec and the latency distribution of
//! `handle` calls. The concurrency benchmark
//! (`crates/bench/benches/concurrency_throughput.rs`) uses this to measure
//! the compiled admission plane's scaling.

use std::time::{Duration, Instant};

use k8s_apiserver::{ApiRequest, RequestHandler};
use kf_attacks::AttackExecutor;

use crate::operator::Operator;
use crate::DeploymentDriver;

/// A reproducible pool of mixed legitimate/attack traffic for one or more
/// operators.
#[derive(Debug, Clone)]
pub struct ThroughputDriver {
    requests: Vec<ApiRequest>,
    attack_count: usize,
}

/// The create : get : list : watch shape of a mixed read/write pool
/// ([`ThroughputDriver::for_operators_mixed`]). The ratios are request
/// counts per mix cycle, so `{1, 8, 1, 0}` replays one create and one list
/// for every eight gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixRatio {
    /// Create (apply) requests per cycle.
    pub create: usize,
    /// Get requests per cycle.
    pub get: usize,
    /// List requests per cycle.
    pub list: usize,
    /// Watch requests per cycle (in pools: initial watches; in the informer
    /// driver: reconcile ticks).
    pub watch: usize,
}

impl MixRatio {
    /// The steady-state traffic of a reconciling operator: mostly reads of
    /// the objects it manages, an occasional re-apply, a periodic list —
    /// 1 create : 8 gets : 1 list.
    pub const OPERATOR_RECONCILE: MixRatio = MixRatio {
        create: 1,
        get: 8,
        list: 1,
        watch: 0,
    };

    /// Deployment-churn traffic: mostly writes with a sanity read and list —
    /// 8 creates : 1 get : 1 list.
    pub const WRITE_HEAVY: MixRatio = MixRatio {
        create: 8,
        get: 1,
        list: 1,
        watch: 0,
    };

    /// Watch-dominated traffic, the shape of a real cluster where operators
    /// and controllers are event-driven: a little write churn to generate
    /// deltas, a sanity get and list, and twelve watch polls — 2 creates :
    /// 1 get : 1 list : 12 watches. This is the mix the `watch_throughput`
    /// benchmark reconciles under.
    pub const WATCH_HEAVY: MixRatio = MixRatio {
        create: 2,
        get: 1,
        list: 1,
        watch: 12,
    };

    /// Requests per cycle.
    pub fn cycle_len(&self) -> usize {
        self.create + self.get + self.list + self.watch
    }

    /// A short label for bench tables (`c1:g8:l1`, `c2:g1:l1:w12`); the
    /// watch component appears only when present.
    pub fn label(&self) -> String {
        if self.watch == 0 {
            format!("c{}:g{}:l{}", self.create, self.get, self.list)
        } else {
            format!(
                "c{}:g{}:l{}:w{}",
                self.create, self.get, self.list, self.watch
            )
        }
    }
}

/// The per-class request pools over the operators' objects — the one
/// builder behind every mixed replay, shared by
/// [`ThroughputDriver::for_operators_mixed`] and the informer driver so
/// both replay the *identical* traffic shape. Each chart object can be
/// replicated `scale` times under suffixed names (`web`, `web-1`, …),
/// modeling populated collections.
#[derive(Debug, Clone)]
pub(crate) struct OperatorPools {
    /// One create (apply) request per distinct (scaled) object.
    pub(crate) creates: Vec<ApiRequest>,
    /// One get request per distinct (scaled) object.
    pub(crate) gets: Vec<ApiRequest>,
    /// The distinct watched/listed collections: (user, kind, namespace).
    pub(crate) targets: Vec<(String, k8s_model::ResourceKind, String)>,
}

impl OperatorPools {
    /// Gather every operator's objects (replicated `scale` times) with
    /// their request coordinates.
    pub(crate) fn gather(operators: &[Operator], scale: usize) -> Self {
        assert!(scale > 0, "collections need at least one replica");
        let name_path = kf_yaml::Path::parse("metadata.name").expect("static path");
        let mut creates = Vec::new();
        let mut gets = Vec::new();
        let mut targets = Vec::new();
        for operator in operators {
            let driver = DeploymentDriver::new(*operator);
            let user = operator.user();
            for object in driver.objects() {
                let namespace = if object.kind().is_namespaced() {
                    operator.namespace()
                } else {
                    ""
                };
                for replica in 0..scale {
                    let variant = if replica == 0 {
                        object.clone()
                    } else {
                        // Copy-on-write rename: the clone splits off its own
                        // tree, the original keeps its name.
                        let mut copy = object.clone();
                        copy.set_field(
                            &name_path,
                            kf_yaml::Value::from(format!("{}-{replica}", object.name()).as_str()),
                        )
                        .expect("chart objects carry a metadata mapping");
                        copy
                    };
                    let mut request = ApiRequest::create(&user, &variant);
                    if variant.kind().is_namespaced() {
                        request.namespace = namespace.to_owned();
                    }
                    gets.push(ApiRequest::get(
                        &user,
                        variant.kind(),
                        namespace,
                        variant.name(),
                    ));
                    creates.push(request);
                }
                let target = (user.clone(), object.kind(), namespace.to_owned());
                if !targets.contains(&target) {
                    targets.push(target);
                }
            }
        }
        assert!(
            !gets.is_empty(),
            "mixed pools need at least one operator object"
        );
        OperatorPools {
            creates,
            gets,
            targets,
        }
    }

    /// Interleave the pools into one deterministic request stream: one mix
    /// cycle per distinct object, separate cursors cycling each request
    /// class over its targets, so every run replays identical traffic.
    pub(crate) fn interleave(&self, mix: MixRatio) -> Vec<ApiRequest> {
        let cycles = self.gets.len();
        let mut requests = Vec::with_capacity(cycles * mix.cycle_len());
        let (mut c, mut g, mut l, mut w) = (0usize, 0usize, 0usize, 0usize);
        for _ in 0..cycles {
            for _ in 0..mix.create {
                requests.push(self.creates[c % self.creates.len()].clone());
                c += 1;
            }
            for _ in 0..mix.get {
                requests.push(self.gets[g % self.gets.len()].clone());
                g += 1;
            }
            for _ in 0..mix.list {
                let (user, kind, namespace) = &self.targets[l % self.targets.len()];
                requests.push(ApiRequest::list(user, *kind, namespace));
                l += 1;
            }
            for _ in 0..mix.watch {
                // Initial watches (no cursor): the pool is static, so cursor
                // management lives in the informer driver; pool replay still
                // pushes every watch through RBAC, audit and the journal.
                let (user, kind, namespace) = &self.targets[w % self.targets.len()];
                requests.push(ApiRequest::watch(user, *kind, namespace, None));
                w += 1;
            }
        }
        requests
    }
}

/// Latency/throughput measurements of one replay run.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Number of replay threads.
    pub threads: usize,
    /// Total requests issued across all threads.
    pub total_requests: u64,
    /// Requests answered with a 2xx status.
    pub admitted: u64,
    /// Requests answered with 403.
    pub denied: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Median per-request `handle` latency.
    pub p50: Duration,
    /// 99th-percentile per-request `handle` latency.
    pub p99: Duration,
    /// Worst observed per-request `handle` latency.
    pub max: Duration,
}

impl ThroughputReport {
    /// Sustained requests per second over the run.
    pub fn requests_per_sec(&self) -> f64 {
        self.total_requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl ThroughputDriver {
    /// A pool for one operator: the operator's legitimate deployment
    /// requests interleaved with the attack catalog's malicious requests
    /// (roughly one attack per three legitimate requests, the interleaving
    /// fixed so every run replays identical traffic).
    pub fn for_operator(operator: Operator) -> Self {
        Self::for_operators(&[operator])
    }

    /// A pool mixing several operators' traffic.
    pub fn for_operators(operators: &[Operator]) -> Self {
        let mut legitimate = Vec::new();
        let mut attacks = Vec::new();
        for operator in operators {
            let driver = DeploymentDriver::new(*operator);
            legitimate.extend(driver.requests());
            let executor = AttackExecutor::new(
                &operator.user(),
                operator.namespace(),
                driver.objects().to_vec(),
            );
            attacks.extend(
                executor
                    .malicious_objects()
                    .into_iter()
                    .map(|(_spec, object)| {
                        let mut request = ApiRequest::create(&operator.user(), &object);
                        if object.kind().is_namespaced() {
                            request.namespace = operator.namespace().to_owned();
                        }
                        request
                    }),
            );
        }
        // Deterministic interleave at a fixed 3:1 legitimate:attack ratio —
        // the legitimate list cycles (replayed traffic re-applies the same
        // manifests, which the server treats as `kubectl apply`) so the pool
        // is always 25% attacks regardless of list lengths.
        let attack_count = attacks.len();
        let mut requests = Vec::with_capacity(4 * attacks.len().max(1));
        let mut legit_cycle = 0usize;
        for attack in attacks {
            for _ in 0..3 {
                requests.push(legitimate[legit_cycle % legitimate.len()].clone());
                legit_cycle += 1;
            }
            requests.push(attack);
        }
        if requests.is_empty() {
            requests = legitimate;
        }
        ThroughputDriver {
            requests,
            attack_count,
        }
    }

    /// A mixed read/write pool over the operators' **legitimate** objects:
    /// per cycle, `mix.create` applies of the next manifests, `mix.get`
    /// reads of the next objects and `mix.list` collection reads of the
    /// next kinds, all interleaved deterministically (separate cursors
    /// cycle each request class over its targets, so every run replays
    /// identical traffic). This is the persistence-plane scenario behind
    /// the `server_throughput` benchmark: creates exercise
    /// admission-to-store sharing, gets and lists exercise the zero-copy
    /// read path. Replay against a store seeded by
    /// [`ThroughputDriver::seed`] so reads hit from the first request.
    pub fn for_operators_mixed(operators: &[Operator], mix: MixRatio) -> Self {
        assert!(mix.cycle_len() > 0, "the mix must request something");
        let pools = OperatorPools::gather(operators, 1);
        ThroughputDriver {
            requests: pools.interleave(mix),
            attack_count: 0,
        }
    }

    /// Apply every distinct object of the pool once, so a subsequent replay
    /// of a read-heavy mix hits existing objects instead of 404s. Uses the
    /// pool's own create requests (admission, audit and exploit accounting
    /// all run — this is a warm server, not a backdoor into the store).
    pub fn seed<H: RequestHandler>(&self, handler: &H) {
        let mut seen: Vec<&ApiRequest> = Vec::new();
        for request in &self.requests {
            if request.body.is_some()
                && !seen.iter().any(|r| {
                    (&r.kind, &r.namespace, &r.name)
                        == (&request.kind, &request.namespace, &request.name)
                })
            {
                handler.handle(request);
                seen.push(request);
            }
        }
    }

    /// Bulk-load every distinct object of the pool straight into a store
    /// backend through [`k8s_apiserver::StoreBackend::apply_batch`] — the
    /// batched-publication fast path benchmarks use to populate large
    /// stores without paying the full request pipeline per object. The
    /// stored state is identical to [`ThroughputDriver::seed`] against a
    /// permissive server: bodies go through the backend's own `ingest`
    /// (so the copy discipline is the store's) and namespace defaulting
    /// replicates admission (the endpoint namespace, else `default`, for
    /// namespaced objects without one). Unlike `seed`, nothing is
    /// authorized or audited. Returns the number of objects loaded.
    pub fn seed_store<S: k8s_apiserver::StoreBackend + ?Sized>(&self, store: &S) -> usize {
        let namespace_path = kf_yaml::Path::parse("metadata.namespace").expect("static path");
        let mut seen: Vec<&ApiRequest> = Vec::new();
        let mut batch = Vec::new();
        for request in &self.requests {
            if request.body.is_none()
                || seen.iter().any(|r| {
                    (&r.kind, &r.namespace, &r.name)
                        == (&request.kind, &request.namespace, &request.name)
                })
            {
                continue;
            }
            seen.push(request);
            let body = request
                .body
                .materialize()
                .expect("pool bodies parse")
                .expect("checked is_some above");
            let mut object = store.ingest(&body).expect("pool bodies are valid objects");
            if object.kind().is_namespaced() && object.namespace().is_empty() {
                let namespace = if request.namespace.is_empty() {
                    "default"
                } else {
                    &request.namespace
                };
                object
                    .set_field(&namespace_path, kf_yaml::Value::from(namespace))
                    .expect("chart objects carry a metadata mapping");
            }
            batch.push(object);
        }
        store.apply_batch(batch).len()
    }

    /// A raw-body pool mixing several operators' traffic: every manifest is
    /// serialized to YAML wire bytes **once** at pool construction, and
    /// replay hands out cheap byte-buffer clones — the wire-faithful regime
    /// the streaming admission plane is measured in.
    pub fn for_operators_raw(operators: &[Operator]) -> Self {
        Self::for_operators(operators).into_raw()
    }

    /// [`ThroughputDriver::for_operators_raw`] with JSON wire bytes — the
    /// dominant format real API clients submit.
    pub fn for_operators_raw_json(operators: &[Operator]) -> Self {
        Self::for_operators(operators).into_raw_json()
    }

    /// Convert the pool to raw (pre-serialized) YAML bodies. Each manifest
    /// is encoded once here; replaying a request afterwards never
    /// re-serializes or deep-clones a document tree.
    pub fn into_raw(mut self) -> Self {
        self.requests = self
            .requests
            .into_iter()
            .map(ApiRequest::into_raw)
            .collect();
        self
    }

    /// Convert the pool to raw (pre-serialized) JSON bodies.
    pub fn into_raw_json(mut self) -> Self {
        self.requests = self
            .requests
            .into_iter()
            .map(ApiRequest::into_raw_json)
            .collect();
        self
    }

    /// The replayed request pool, in replay order.
    pub fn requests(&self) -> &[ApiRequest] {
        &self.requests
    }

    /// Number of attack requests in the pool.
    pub fn attack_count(&self) -> usize {
        self.attack_count
    }

    /// Replay the pool from `threads` threads, each cycling through the pool
    /// until it has issued `requests_per_thread` requests. Threads start at
    /// rotated offsets so they do not traverse the pool in lockstep.
    pub fn run<H>(
        &self,
        handler: &H,
        threads: usize,
        requests_per_thread: usize,
    ) -> ThroughputReport
    where
        H: RequestHandler + Sync,
    {
        assert!(threads > 0, "at least one replay thread is required");
        assert!(!self.requests.is_empty(), "replay pool is empty");
        let pool = &self.requests;
        let started = Instant::now();
        let per_thread: Vec<(u64, u64, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|thread| {
                    scope.spawn(move || {
                        let mut admitted = 0u64;
                        let mut denied = 0u64;
                        let mut latencies_ns = Vec::with_capacity(requests_per_thread);
                        // Rotated start so threads hit different requests.
                        let offset = thread * pool.len() / threads.max(1);
                        for i in 0..requests_per_thread {
                            let request = &pool[(offset + i) % pool.len()];
                            let issued = Instant::now();
                            let response = handler.handle(request);
                            latencies_ns.push(issued.elapsed().as_nanos() as u64);
                            if response.is_success() {
                                admitted += 1;
                            } else {
                                denied += 1;
                            }
                        }
                        (admitted, denied, latencies_ns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        let elapsed = started.elapsed();
        let mut admitted = 0;
        let mut denied = 0;
        let mut latencies: Vec<u64> = Vec::with_capacity(threads * requests_per_thread);
        for (a, d, l) in per_thread {
            admitted += a;
            denied += d;
            latencies.extend(l);
        }
        latencies.sort_unstable();
        let percentile = |p: usize| {
            Duration::from_nanos(latencies[(latencies.len() * p / 100).min(latencies.len() - 1)])
        };
        ThroughputReport {
            threads,
            total_requests: (threads * requests_per_thread) as u64,
            admitted,
            denied,
            elapsed,
            p50: percentile(50),
            p99: percentile(99),
            max: Duration::from_nanos(*latencies.last().expect("non-empty")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_apiserver::ApiServer;

    #[test]
    fn the_pool_mixes_legitimate_and_attack_traffic() {
        let driver = ThroughputDriver::for_operator(Operator::Nginx);
        assert!(driver.attack_count() > 0);
        assert!(driver.requests().len() > driver.attack_count());
    }

    #[test]
    fn replay_counts_add_up_across_threads() {
        let driver = ThroughputDriver::for_operator(Operator::Nginx);
        let server = ApiServer::new().with_admin(&Operator::Nginx.user());
        let report = driver.run(&server, 4, 40);
        assert_eq!(report.threads, 4);
        assert_eq!(report.total_requests, 160);
        assert_eq!(report.admitted + report.denied, 160);
        assert!(report.requests_per_sec() > 0.0);
        assert!(report.p50 <= report.p99);
        assert!(report.p99 <= report.max);
        // The permissive server admits everything, attacks included.
        assert_eq!(report.denied, 0);
    }

    #[test]
    fn raw_pools_replay_identically_to_tree_pools() {
        let tree = ThroughputDriver::for_operator(Operator::Nginx);
        let raw = ThroughputDriver::for_operator(Operator::Nginx).into_raw();
        assert_eq!(tree.requests().len(), raw.requests().len());
        assert_eq!(tree.attack_count(), raw.attack_count());
        for (t, r) in tree.requests().iter().zip(raw.requests()) {
            assert_eq!(t.path(), r.path());
            assert!(t.body.is_none() == r.body.is_none());
            if r.body.is_some() {
                assert!(r.body.raw().is_some(), "raw pools carry wire bytes");
            }
        }
        // Replay against a permissive server succeeds for both shapes.
        let server = ApiServer::new().with_admin(&Operator::Nginx.user());
        let report = raw.run(&server, 2, 40);
        assert_eq!(report.admitted + report.denied, 80);
    }

    #[test]
    fn json_pools_replay_identically_to_yaml_pools() {
        let yaml = ThroughputDriver::for_operators_raw(&[Operator::Nginx]);
        let json = ThroughputDriver::for_operators_raw_json(&[Operator::Nginx]);
        assert_eq!(yaml.requests().len(), json.requests().len());
        for (y, j) in yaml.requests().iter().zip(json.requests()) {
            assert_eq!(y.path(), j.path());
            if let Some(bytes) = j.body.raw() {
                assert_eq!(bytes.first(), Some(&b'{'), "JSON pools carry JSON bytes");
            }
        }
        // Both pools materialize to loosely-equal documents request by
        // request, so enforcement verdicts cannot depend on the format.
        for (y, j) in yaml.requests().iter().zip(json.requests()) {
            let yt = y.body.materialize().unwrap();
            let jt = j.body.materialize().unwrap();
            match (yt, jt) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!(a.loosely_equals(&b)),
                other => panic!("body presence diverged: {other:?}"),
            }
        }
        let server = ApiServer::new().with_admin(&Operator::Nginx.user());
        let report = json.run(&server, 2, 40);
        assert_eq!(report.admitted + report.denied, 80);
    }

    #[test]
    fn mixed_pools_follow_the_requested_ratio() {
        let mix = MixRatio::OPERATOR_RECONCILE;
        let driver = ThroughputDriver::for_operators_mixed(&[Operator::Nginx], mix);
        assert_eq!(driver.attack_count(), 0);
        assert_eq!(driver.requests().len() % mix.cycle_len(), 0);
        let (mut creates, mut gets, mut lists) = (0usize, 0usize, 0usize);
        for request in driver.requests() {
            match request.verb {
                k8s_model::Verb::Create => creates += 1,
                k8s_model::Verb::Get => gets += 1,
                k8s_model::Verb::List => lists += 1,
                other => panic!("unexpected verb in mixed pool: {other:?}"),
            }
        }
        let cycles = driver.requests().len() / mix.cycle_len();
        assert_eq!(creates, cycles * mix.create);
        assert_eq!(gets, cycles * mix.get);
        assert_eq!(lists, cycles * mix.list);
        // Deterministic: two constructions replay identical traffic.
        let again = ThroughputDriver::for_operators_mixed(&[Operator::Nginx], mix);
        let paths: Vec<String> = driver.requests().iter().map(|r| r.path()).collect();
        let paths_again: Vec<String> = again.requests().iter().map(|r| r.path()).collect();
        assert_eq!(paths, paths_again);
    }

    #[test]
    fn seeded_read_heavy_replay_serves_reads_from_the_store() {
        let driver =
            ThroughputDriver::for_operators_mixed(&[Operator::Nginx], MixRatio::OPERATOR_RECONCILE);
        let server = ApiServer::new().with_admin(&Operator::Nginx.user());
        driver.seed(&server);
        assert!(
            !server.store().is_empty(),
            "seeding must populate the store"
        );
        let report = driver.run(&server, 2, 60);
        // Every request in a seeded mixed replay succeeds: creates apply,
        // gets and lists hit stored objects.
        assert_eq!(report.denied, 0);
        assert_eq!(report.admitted, 120);
    }

    #[test]
    fn seed_store_bulk_load_matches_seeding_through_the_server() {
        use k8s_apiserver::{ObjectStore, StoreBackend};

        let driver =
            ThroughputDriver::for_operators_mixed(&[Operator::Nginx], MixRatio::WRITE_HEAVY);
        // Reference: the full request pipeline on a permissive server.
        let server = ApiServer::new().with_admin(&Operator::Nginx.user());
        driver.seed(&server);
        // Fast path: bulk-load the same pool through apply_batch.
        let store = ObjectStore::new();
        let loaded = driver.seed_store(&store);
        assert!(loaded > 0);
        assert_eq!(store.len(), server.store().len());
        assert_eq!(store.count_by_kind(), server.store().count_by_kind());
        // Object for object, same coordinates — namespace defaulting
        // replicated admission exactly.
        for reference in server.store().list(k8s_model::ResourceKind::Pod, "") {
            assert!(store
                .get(
                    reference.object.kind(),
                    reference.object.namespace(),
                    reference.object.name()
                )
                .is_some());
        }
        // The bulk load published one watch event per object.
        assert_eq!(StoreBackend::revision(&store), loaded as u64);
    }

    #[test]
    fn watch_heavy_pools_include_watch_requests() {
        let mix = MixRatio::WATCH_HEAVY;
        assert_eq!(mix.label(), "c2:g1:l1:w12");
        let driver = ThroughputDriver::for_operators_mixed(&[Operator::Nginx], mix);
        let watches = driver
            .requests()
            .iter()
            .filter(|r| r.verb == k8s_model::Verb::Watch)
            .count();
        let cycles = driver.requests().len() / mix.cycle_len();
        assert_eq!(watches, cycles * mix.watch);
        // Replay against a seeded permissive server: watches succeed and
        // return watch batches.
        let server = ApiServer::new().with_admin(&Operator::Nginx.user());
        driver.seed(&server);
        let report = driver.run(&server, 2, 40);
        assert_eq!(report.denied, 0);
    }

    #[test]
    fn write_heavy_mix_is_mostly_creates() {
        let driver =
            ThroughputDriver::for_operators_mixed(&[Operator::Postgresql], MixRatio::WRITE_HEAVY);
        let creates = driver
            .requests()
            .iter()
            .filter(|r| r.verb == k8s_model::Verb::Create)
            .count();
        assert!(creates * 10 >= driver.requests().len() * 7);
        assert_eq!(MixRatio::WRITE_HEAVY.label(), "c8:g1:l1");
    }

    #[test]
    fn single_threaded_replay_is_deterministic_traffic() {
        let driver = ThroughputDriver::for_operator(Operator::Postgresql);
        let a: Vec<String> = driver.requests().iter().map(|r| r.path()).collect();
        let b: Vec<String> = ThroughputDriver::for_operator(Operator::Postgresql)
            .requests()
            .iter()
            .map(|r| r.path())
            .collect();
        assert_eq!(a, b);
    }
}
