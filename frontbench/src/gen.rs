//! Seeded request generation.
//!
//! Everything the program under test receives is built here, from the
//! workload seed, before any timer starts: the tenant key space, the seeding
//! order, and one request stream per client. Each request carries the
//! verdict the front door must return for it ([`Expect`]), so the clients
//! can check every response without consulting the program.

use bytes::Bytes;
use k8s_apiserver::{ApiRequest, RequestBody};
use k8s_model::{K8sObject, ResourceKind, Verb};
use kf_attacks::AttackExecutor;
use kf_workloads::{DeploymentDriver, Operator};
use kf_yaml::BodyFormat;

/// Tenant namespaces per operator. Each tenant holds one copy of every
/// namespaced chart object of its operator, so the key space grows by
/// namespace: the learned policy pins `metadata.name`.
pub const TENANTS_PER_OPERATOR: usize = 400;

/// SplitMix64: small, fast, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One chart object of one operator, pre-serialized once in both wire
/// formats.
#[derive(Debug)]
pub struct Template {
    /// The parsed object, for the set-up's RBAC learning replay.
    pub object: K8sObject,
    pub kind: ResourceKind,
    pub name: String,
    pub yaml: Bytes,
    pub json: Bytes,
}

/// One attack-catalog body for one operator.
#[derive(Debug)]
pub struct AttackBody {
    pub kind: ResourceKind,
    pub name: String,
    pub yaml: Bytes,
    pub json: Bytes,
}

#[derive(Debug)]
pub struct OperatorCorpus {
    pub operator: Operator,
    pub user: String,
    pub templates: Vec<Template>,
    pub attacks: Vec<AttackBody>,
    /// The distinct kinds among `templates`, in first-seen order.
    pub kinds: Vec<ResourceKind>,
    /// Index of this operator's first key in the global key numbering.
    pub first_key: usize,
}

/// The five operators' chart objects and attack bodies, and the tenant key
/// space built from them. Key `k` is one (operator, tenant, template).
#[derive(Debug)]
pub struct Corpus {
    pub operators: Vec<OperatorCorpus>,
    pub tenants: usize,
    key_count: usize,
}

/// A stored object's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub operator: usize,
    pub tenant: usize,
    pub template: usize,
}

/// The verdict a request must get from the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// An admitted write of key `.0`: 2xx with a resourceVersion.
    Write(u32),
    /// An attack body: 403 from the proxy plus a denial record.
    Deny,
    /// A get of key `.0`: 200 with the stored object.
    Get(u32),
    /// A namespace list of collection `.0`: 200 with every seeded item.
    List(u32),
    /// A pull-watch resume on collection `.0`, from just below the
    /// revision of the collection's `.1`-th key in revision order: 200 with
    /// the events after that cursor.
    Resume(u32, u32),
}

/// One generated request and its expected verdict.
#[derive(Debug, Clone)]
pub struct Op {
    pub request: ApiRequest,
    pub expect: Expect,
}

fn body_of(object: &K8sObject) -> (Bytes, Bytes) {
    (
        Bytes::from(kf_yaml::to_yaml(object.body())),
        Bytes::from(kf_yaml::to_json(object.body())),
    )
}

impl Corpus {
    /// Render every operator's default deployment and inject the attack
    /// catalog into it. Cluster-scoped objects are left out: one copy of
    /// them is shared by every tenant, so they would not grow the key space.
    pub fn build(tenants: usize) -> Self {
        let mut operators = Vec::new();
        let mut first_key = 0;
        for operator in Operator::ALL {
            let deployment = DeploymentDriver::new(operator);
            let objects: Vec<&K8sObject> = deployment
                .objects()
                .iter()
                .filter(|o| o.kind().is_namespaced())
                .collect();
            let mut kinds = Vec::new();
            let templates: Vec<Template> = objects
                .iter()
                .map(|o| {
                    if !kinds.contains(&o.kind()) {
                        kinds.push(o.kind());
                    }
                    let (yaml, json) = body_of(o);
                    Template {
                        object: (*o).clone(),
                        kind: o.kind(),
                        name: o.name().to_owned(),
                        yaml,
                        json,
                    }
                })
                .collect();
            let executor = AttackExecutor::new(
                &operator.user(),
                operator.namespace(),
                deployment.objects().to_vec(),
            );
            let attacks = executor
                .malicious_objects()
                .into_iter()
                .map(|(_spec, o)| {
                    let (yaml, json) = body_of(&o);
                    AttackBody {
                        kind: o.kind(),
                        name: o.name().to_owned(),
                        yaml,
                        json,
                    }
                })
                .collect();
            let count = templates.len() * tenants;
            operators.push(OperatorCorpus {
                operator,
                user: operator.user(),
                templates,
                attacks,
                kinds,
                first_key,
            });
            first_key += count;
        }
        Corpus {
            operators,
            tenants,
            key_count: first_key,
        }
    }

    pub fn key_count(&self) -> usize {
        self.key_count
    }

    pub fn key(&self, id: usize) -> Key {
        let operator = self
            .operators
            .iter()
            .rposition(|o| o.first_key <= id)
            .expect("key ids start at 0");
        let local = id - self.operators[operator].first_key;
        let per_tenant = self.operators[operator].templates.len();
        Key {
            operator,
            tenant: local / per_tenant,
            template: local % per_tenant,
        }
    }

    pub fn key_id(&self, key: Key) -> usize {
        let o = &self.operators[key.operator];
        o.first_key + key.tenant * o.templates.len() + key.template
    }

    pub fn namespace(&self, operator: usize, tenant: usize) -> String {
        format!(
            "{}-t{tenant:03}",
            self.operators[operator].operator.namespace()
        )
    }

    /// Every (operator, tenant, kind) collection, numbered densely.
    pub fn collections(&self) -> Vec<(usize, usize, ResourceKind)> {
        let mut out = Vec::new();
        for (o, corpus) in self.operators.iter().enumerate() {
            for tenant in 0..self.tenants {
                for kind in &corpus.kinds {
                    out.push((o, tenant, *kind));
                }
            }
        }
        out
    }

    /// A raw-bodied request for `object`: (kind, name, YAML bytes, JSON
    /// bytes), sent as JSON when `json` and as YAML otherwise.
    fn raw_request(
        &self,
        operator: usize,
        tenant: usize,
        verb: Verb,
        (kind, name, yaml, json_bytes): (ResourceKind, &str, &Bytes, &Bytes),
        json: bool,
    ) -> ApiRequest {
        let (bytes, format, content_type) = if json {
            (json_bytes.clone(), BodyFormat::Json, "application/json")
        } else {
            (yaml.clone(), BodyFormat::Yaml, "application/yaml")
        };
        ApiRequest {
            user: self.operators[operator].user.clone(),
            verb,
            kind,
            namespace: self.namespace(operator, tenant),
            name: name.to_owned(),
            content_type: Some(content_type.to_owned()),
            resource_version: None,
            body: RequestBody::Raw(bytes, format),
        }
    }

    /// A raw create or update of key `id`.
    pub fn write(&self, id: usize, verb: Verb, json: bool) -> Op {
        let key = self.key(id);
        let t = &self.operators[key.operator].templates[key.template];
        Op {
            request: self.raw_request(
                key.operator,
                key.tenant,
                verb,
                (t.kind, &t.name, &t.yaml, &t.json),
                json,
            ),
            expect: Expect::Write(id as u32),
        }
    }

    fn attack(&self, rng: &mut Rng) -> Op {
        let operator = rng.below(self.operators.len());
        let tenant = rng.below(self.tenants);
        let attacks = &self.operators[operator].attacks;
        let a = &attacks[rng.below(attacks.len())];
        let json = rng.below(2) == 0;
        Op {
            request: self.raw_request(
                operator,
                tenant,
                Verb::Create,
                (a.kind, &a.name, &a.yaml, &a.json),
                json,
            ),
            expect: Expect::Deny,
        }
    }

    fn random_write(&self, rng: &mut Rng, ids: &[usize]) -> Op {
        let id = ids[rng.below(ids.len())];
        let verb = if rng.below(2) == 0 {
            Verb::Create
        } else {
            Verb::Update
        };
        let json = rng.below(2) == 0;
        self.write(id, verb, json)
    }

    /// The set-up load: one create per key, in seeded order, half JSON and
    /// half YAML.
    pub fn seeding(&self, seed: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed, 1);
        let mut ids: Vec<usize> = (0..self.key_count).collect();
        rng.shuffle(&mut ids);
        ids.into_iter()
            .map(|id| self.write(id, Verb::Create, rng.below(2) == 0))
            .collect()
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FencedApply,
    InformerRead,
    WatchFanout,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fenced-apply" => Some(Workload::FencedApply),
            "informer-read" => Some(Workload::InformerRead),
            "watch-fanout" => Some(Workload::WatchFanout),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::FencedApply => "fenced-apply",
            Workload::InformerRead => "informer-read",
            Workload::WatchFanout => "watch-fanout",
        }
    }
}

/// Closed-loop `fenced-apply` stream: 3 in 4 requests re-apply a random
/// tenant object (create or update, JSON or YAML), 1 in 4 is an attack body
/// for a random tenant.
pub fn fenced_apply_stream(corpus: &Corpus, seed: u64, client: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 100 + client);
    let ids: Vec<usize> = (0..corpus.key_count()).collect();
    (0..len)
        .map(|_| {
            if rng.below(4) == 0 {
                corpus.attack(&mut rng)
            } else {
                corpus.random_write(&mut rng, &ids)
            }
        })
        .collect()
}

/// The acknowledged revisions of one collection's keys, ascending.
pub fn collection_revisions(
    corpus: &Corpus,
    revisions: &[u64],
    (operator, tenant, kind): (usize, usize, ResourceKind),
) -> Vec<u64> {
    let o = &corpus.operators[operator];
    let mut out: Vec<u64> = o
        .templates
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == kind)
        .map(|(template, _)| {
            revisions[corpus.key_id(Key {
                operator,
                tenant,
                template,
            })]
        })
        .collect();
    out.sort_unstable();
    out
}

/// Closed-loop `informer-read` stream: gets, namespace lists and pull-watch
/// resumes in an 8:1:1 ratio over random tenants. A resume names a rank in
/// its collection; [`resolve_cursors`] turns it into the cursor just below
/// that key's seeded revision, so the resume returns a known, non-empty
/// suffix of the collection.
pub fn informer_read_stream(corpus: &Corpus, seed: u64, client: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 200 + client);
    let collections = corpus.collections();
    (0..len)
        .map(|_| {
            let roll = rng.below(10);
            if roll < 8 {
                let id = rng.below(corpus.key_count());
                let key = corpus.key(id);
                let o = &corpus.operators[key.operator];
                let t = &o.templates[key.template];
                Op {
                    request: ApiRequest::get(
                        &o.user,
                        t.kind,
                        &corpus.namespace(key.operator, key.tenant),
                        &t.name,
                    ),
                    expect: Expect::Get(id as u32),
                }
            } else {
                let c = rng.below(collections.len());
                let (operator, tenant, kind) = collections[c];
                let user = &corpus.operators[operator].user;
                let namespace = corpus.namespace(operator, tenant);
                if roll == 8 {
                    Op {
                        request: ApiRequest::list(user, kind, &namespace),
                        expect: Expect::List(c as u32),
                    }
                } else {
                    let size = corpus.operators[operator]
                        .templates
                        .iter()
                        .filter(|t| t.kind == kind)
                        .count();
                    Op {
                        request: ApiRequest::watch(user, kind, &namespace, None),
                        expect: Expect::Resume(c as u32, rng.below(size) as u32),
                    }
                }
            }
        })
        .collect()
}

/// Give every resume its cursor once seeding has assigned revisions:
/// `collections[c]` holds collection `c`'s revisions, ascending.
pub fn resolve_cursors(ops: &mut [Op], collections: &[Vec<u64>]) {
    for op in ops {
        if let Expect::Resume(c, rank) = op.expect {
            op.request.resource_version = Some(collections[c as usize][rank as usize] - 1);
        }
    }
}

/// The `watch-fanout` hot set: tenant 0 of each operator. It does not
/// depend on the seed: which namespaces share a watch-journal sub-shard
/// sets the fan-out cost, and a seeded choice would make that cost vary
/// from seed to seed.
pub fn hot_tenants(corpus: &Corpus) -> Vec<(usize, usize)> {
    (0..corpus.operators.len()).map(|o| (o, 0)).collect()
}

/// Open-loop `watch-fanout` writer stream over the hot tenants' keys.
pub fn watch_fanout_stream(corpus: &Corpus, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 301);
    let mut ids = Vec::new();
    for (operator, tenant) in hot_tenants(corpus) {
        for template in 0..corpus.operators[operator].templates.len() {
            ids.push(corpus.key_id(Key {
                operator,
                tenant,
                template,
            }));
        }
    }
    (0..len)
        .map(|_| corpus.random_write(&mut rng, &ids))
        .collect()
}

/// A byte encoding of a request stream: every field the program receives.
#[cfg(test)]
pub fn stream_bytes(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        let r = &op.request;
        for field in [
            r.user.as_str(),
            r.verb.as_str(),
            r.kind.as_str(),
            &r.namespace,
            &r.name,
            r.content_type.as_deref().unwrap_or(""),
        ] {
            out.extend_from_slice(field.as_bytes());
            out.push(0);
        }
        out.extend_from_slice(&r.resource_version.unwrap_or(u64::MAX).to_le_bytes());
        if let Some(bytes) = r.body.raw() {
            out.extend_from_slice(bytes);
        }
        // A resume's cursor is resolved after seeding from its rank.
        out.extend_from_slice(format!("{:?}", op.expect).as_bytes());
        out.push(0xff);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams(corpus: &Corpus, seed: u64) -> Vec<Vec<u8>> {
        vec![
            stream_bytes(&corpus.seeding(seed)),
            stream_bytes(&fenced_apply_stream(corpus, seed, 0, 500)),
            stream_bytes(&fenced_apply_stream(corpus, seed, 1, 500)),
            stream_bytes(&informer_read_stream(corpus, seed, 0, 500)),
            stream_bytes(&watch_fanout_stream(corpus, seed, 500)),
        ]
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_reorders() {
        let corpus = Corpus::build(8);
        let a = streams(&corpus, 7);
        let b = streams(&Corpus::build(8), 7);
        assert_eq!(a, b, "same seed, same bytes");
        let c = streams(&corpus, 8);
        for (x, y) in a.iter().zip(&c) {
            assert_ne!(x, y, "another seed, another order");
        }
        // The seeding stream is a permutation: same requests, new order.
        let mut one: Vec<String> = corpus.seeding(7).iter().map(|o| o.request.path()).collect();
        let mut two: Vec<String> = corpus.seeding(8).iter().map(|o| o.request.path()).collect();
        assert_ne!(one, two);
        one.sort();
        two.sort();
        assert_eq!(one, two);
    }

    #[test]
    fn key_numbering_round_trips() {
        let corpus = Corpus::build(3);
        for id in 0..corpus.key_count() {
            assert_eq!(corpus.key_id(corpus.key(id)), id);
        }
    }
}
