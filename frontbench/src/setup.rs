//! Set-up: policy generation, RBAC learning, the durable store, and seeding
//! through the front door. Also the restart check that ends every run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use helm_lite::Chart;
use k8s_apiserver::persist::{FsyncPolicy, PersistConfig, Persistence};
use k8s_apiserver::{
    ApiRequest, ApiResponse, ApiServer, ObjectStore, PushWatch, RequestHandler, ResponseStatus,
    WatchHub,
};
use k8s_rbac::{audit2rbac, Audit2RbacOptions, RbacPolicySet};
use kf_workloads::Operator;
use kf_yaml::Value;
use kubefence::{EnforcementProxy, GeneratorConfig, PolicyGenerator, ValidatorSet};

use crate::gen::{Corpus, Expect, Op};
use crate::trace::{TracedServer, TracedStore};

/// The flush policy of every workload.
pub const FSYNC: &str = "group";

/// Concurrent seeding clients: enough that group commit shares each fsync
/// among several creates, so set-up time follows CPU more than the disk.
pub const SEED_THREADS: usize = 8;

/// What the proxy forwards to: the bare server, or the traced wrapper.
pub trait Upstream: RequestHandler + Send + Sync + Sized {
    fn build(store: ObjectStore, policy: RbacPolicySet) -> Self;
    fn object_store(&self) -> &ObjectStore;
    fn subscribe_push(&self, request: &ApiRequest) -> Result<PushWatch, ApiResponse>;
}

impl Upstream for ApiServer<ObjectStore> {
    fn build(store: ObjectStore, policy: RbacPolicySet) -> Self {
        let server = ApiServer::with_store(store);
        server.set_rbac_policy(Some(policy));
        server
    }

    fn object_store(&self) -> &ObjectStore {
        self.store()
    }

    fn subscribe_push(&self, request: &ApiRequest) -> Result<PushWatch, ApiResponse> {
        WatchHub::subscribe_push(self, request)
    }
}

impl Upstream for TracedServer {
    fn build(store: ObjectStore, policy: RbacPolicySet) -> Self {
        let server = ApiServer::with_store(TracedStore(store));
        server.set_rbac_policy(Some(policy));
        TracedServer(server)
    }

    fn object_store(&self) -> &ObjectStore {
        &self.0.store().0
    }

    fn subscribe_push(&self, request: &ApiRequest) -> Result<PushWatch, ApiResponse> {
        WatchHub::subscribe_push(&self.0, request)
    }
}

/// Bench-side timers of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_ms: f64,
    pub learn_ms: f64,
    pub seed_ms: f64,
    pub policy_objects: usize,
}

/// A set-up ready to serve: the front door, its persistence handle, and
/// the acknowledged state so far.
pub struct Stack<U: Upstream> {
    pub proxy: EnforcementProxy<U>,
    pub dir: PathBuf,
    pub times: SetupTimes,
    /// Highest acknowledged resourceVersion per key.
    pub acked: Vec<u64>,
    /// Bytes of request bodies acknowledged so far.
    pub acked_body_bytes: u64,
    /// Seeding requests whose response differed from the expected one.
    pub seed_failures: u64,
}

pub fn persist_config(dir: &Path) -> PersistConfig {
    PersistConfig::new(dir).with_fsync(FsyncPolicy::parse(FSYNC).expect("static policy"))
}

/// The resourceVersion a successful write response reports.
pub fn acked_revision(response: &ApiResponse) -> Option<u64> {
    if !response.is_success() {
        return None;
    }
    let tail = response.message.split("resourceVersion ").nth(1)?;
    tail.trim_end_matches(')').parse().ok()
}

/// The learning replay: one request per (user, verb, kind, namespace) the
/// legitimate traffic uses, against a permissive in-memory server. The
/// audit log of that attack-free run is what audit2rbac learns from.
fn learn_rbac(corpus: &Corpus) -> RbacPolicySet {
    let learning = ApiServer::new();
    for (operator, tenant, kind) in corpus.collections() {
        let o = &corpus.operators[operator];
        let namespace = corpus.namespace(operator, tenant);
        let template = o
            .templates
            .iter()
            .find(|t| t.kind == kind)
            .expect("collections come from templates");
        let mut create = ApiRequest::create(&o.user, &template.object);
        create.namespace = namespace.clone();
        let mut update = ApiRequest::update(&o.user, &template.object);
        update.namespace = namespace.clone();
        for request in [
            create,
            update,
            ApiRequest::get(&o.user, kind, &namespace, &template.name),
            ApiRequest::list(&o.user, kind, &namespace),
            ApiRequest::watch(&o.user, kind, &namespace, None),
        ] {
            let response = learning.handle(&request);
            assert!(
                response.is_success(),
                "learning replay must be attack-free and succeed: {}",
                response.message
            );
        }
    }
    let log = learning.audit_log();
    let mut merged = RbacPolicySet::new();
    for o in &corpus.operators {
        let policy = audit2rbac(log.events(), &o.user, &Audit2RbacOptions::default());
        for role in policy.roles() {
            merged.add_role(role.clone());
        }
        for binding in policy.bindings() {
            merged.add_binding(binding.clone());
        }
    }
    merged
}

/// What one seeding thread saw: (key, acknowledged revision) pairs, the
/// acknowledged body bytes, and the creates that failed.
type SeedShare = (Vec<(u32, u64)>, u64, u64);

/// One full set-up on a fresh directory `dir`.
pub fn setup<U: Upstream>(
    corpus: &Corpus,
    charts: &[Chart],
    seeding: &[Op],
    dir: &Path,
) -> Stack<U> {
    std::fs::remove_dir_all(dir).ok();
    let started = Instant::now();

    let t = Instant::now();
    let mut validators = ValidatorSet::new();
    for (operator, chart) in Operator::ALL.iter().zip(charts) {
        validators.push(
            PolicyGenerator::new(GeneratorConfig::for_release(operator.release_name()))
                .generate(chart)
                .expect("built-in charts generate valid policies"),
        );
    }
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let policy = learn_rbac(corpus);
    let learn_ms = t.elapsed().as_secs_f64() * 1e3;
    let policy_objects = policy.object_count();

    let (store, _, _) =
        Persistence::open(persist_config(dir)).expect("a fresh persistence directory opens");
    let proxy = EnforcementProxy::with_validators(U::build(store, policy), validators);

    // Seeding threads each take a contiguous share of the seeded order; the
    // group commit lets their creates share fsyncs.
    let t = Instant::now();
    let share = seeding.len().div_ceil(SEED_THREADS);
    let front = &proxy;
    let seeded: Vec<SeedShare> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeding
            .chunks(share)
            .map(|ops| {
                scope.spawn(move || {
                    let (mut acked, mut bytes, mut failures) = (Vec::new(), 0u64, 0u64);
                    for op in ops {
                        let response = front.handle(&op.request);
                        let Expect::Write(id) = op.expect else {
                            unreachable!("seeding only writes")
                        };
                        match acked_revision(&response) {
                            Some(rv) if response.status == ResponseStatus::Created => {
                                acked.push((id, rv));
                                bytes += op.request.body.raw().map_or(0, |b| b.len() as u64);
                            }
                            _ => failures += 1,
                        }
                    }
                    (acked, bytes, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seeding thread panicked"))
            .collect()
    });
    let seed_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut acked = vec![0u64; corpus.key_count()];
    let mut acked_body_bytes = 0u64;
    let mut seed_failures = 0u64;
    for (pairs, bytes, failures) in seeded {
        for (id, rv) in pairs {
            acked[id as usize] = rv;
        }
        acked_body_bytes += bytes;
        seed_failures += failures;
    }

    Stack {
        proxy,
        dir: dir.to_path_buf(),
        times: SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            generate_ms,
            learn_ms,
            seed_ms,
            policy_objects,
        },
        acked,
        acked_body_bytes,
        seed_failures,
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Copy a persistence directory: a crash image of the store at this point,
/// since every acknowledged write is already on stable storage.
pub fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let target = dst.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Per key, the acknowledged (resourceVersion, body) as the live store
/// holds it; `None` where the live store disagrees with the acknowledgement.
pub struct Expected {
    pub state: Vec<Option<(u64, Arc<Value>)>>,
    pub mismatches: u64,
}

pub fn expected_state(corpus: &Corpus, store: &ObjectStore, acked: &[u64]) -> Expected {
    let mut mismatches = u64::from(store.len() != corpus.key_count());
    let state = acked
        .iter()
        .enumerate()
        .map(|(id, &rv)| {
            let key = corpus.key(id);
            let t = &corpus.operators[key.operator].templates[key.template];
            match store.get(t.kind, &corpus.namespace(key.operator, key.tenant), &t.name) {
                Some(stored) if stored.resource_version == rv => {
                    Some((rv, Arc::clone(stored.object.shared_body())))
                }
                _ => {
                    mismatches += 1;
                    None
                }
            }
        })
        .collect();
    Expected { state, mismatches }
}

/// One timed `Persistence::open` of a directory, and its check.
#[derive(Debug, Clone, Copy)]
pub struct Reopen {
    pub seconds: f64,
    pub wal_records: usize,
    /// Keys whose recovered revision or body differs from `expected`, plus
    /// one for a differing object count.
    pub mismatches: u64,
}

/// Open `dir` as a restarting server would, timing `Persistence::open`,
/// then compare the recovered store with `expected` key by key. Opening a
/// cleanly written directory leaves its files as they were, so the same
/// directory can be reopened again.
pub fn reopen(corpus: &Corpus, dir: &Path, expected: &Expected) -> Reopen {
    let t = Instant::now();
    let (store, _, report) = Persistence::open(persist_config(dir)).expect("the directory reopens");
    let seconds = t.elapsed().as_secs_f64();
    let mut mismatches = u64::from(store.len() != corpus.key_count());
    for (id, want) in expected.state.iter().enumerate() {
        let key = corpus.key(id);
        let t = &corpus.operators[key.operator].templates[key.template];
        let got = store.get(t.kind, &corpus.namespace(key.operator, key.tenant), &t.name);
        match (got, want) {
            (Some(stored), Some((rv, body)))
                if stored.resource_version == *rv && **stored.object.shared_body() == **body => {}
            _ => mismatches += 1,
        }
    }
    Reopen {
        seconds,
        wal_records: report.wal_records,
        mismatches,
    }
}

/// [`reopen`] the crash image `image` `n` times, reporting the median open
/// time and every reopening's mismatches. Removes the image.
pub fn reopen_image(corpus: &Corpus, image: &Path, expected: &Expected, n: usize) -> Reopen {
    let runs: Vec<Reopen> = (0..n).map(|_| reopen(corpus, image, expected)).collect();
    std::fs::remove_dir_all(image).ok();
    Reopen {
        seconds: crate::report::median_f64(&runs.iter().map(|r| r.seconds).collect::<Vec<_>>()),
        wal_records: runs[0].wal_records,
        mismatches: runs.iter().map(|r| r.mismatches).sum(),
    }
}
