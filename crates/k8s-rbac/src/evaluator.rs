//! The RBAC authorization evaluator consulted by the API server.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use k8s_model::{ResourceKind, Verb};

use crate::role::{Role, RoleBinding, RoleScope};

/// An authorization question: may `user` perform `verb` on `kind` in
/// `namespace` (optionally on a specific object `name`)?
///
/// The review borrows its strings, so the server can ask it about a request
/// without copying the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessReview<'a> {
    /// Authenticated user name.
    pub user: &'a str,
    /// Requested verb.
    pub verb: Verb,
    /// Target resource kind.
    pub kind: ResourceKind,
    /// Target namespace (empty for cluster-scoped kinds).
    pub namespace: &'a str,
    /// Target object name (empty for collection operations).
    pub name: &'a str,
}

impl<'a> AccessReview<'a> {
    /// Build an access review.
    pub fn new(
        user: &'a str,
        verb: Verb,
        kind: ResourceKind,
        namespace: &'a str,
        name: &'a str,
    ) -> Self {
        AccessReview {
            user,
            verb,
            kind,
            namespace,
            name,
        }
    }
}

/// The outcome of an authorization check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessDecision {
    /// The request is allowed; the string names the role and binding that
    /// granted it.
    Allow {
        /// `binding/role` that granted the access.
        granted_by: String,
    },
    /// No rule allows the request.
    Deny {
        /// Human-readable reason.
        reason: String,
    },
}

impl AccessDecision {
    /// Whether the decision allows the request.
    pub fn is_allowed(&self) -> bool {
        matches!(self, AccessDecision::Allow { .. })
    }
}

/// A set of RBAC objects (roles, cluster roles and their bindings) forming the
/// effective policy of a cluster.
///
/// Besides the objects themselves the set keeps an index derived from them,
/// so authorizing a request looks up the requesting user's bindings instead
/// of scanning every binding and role. The index is not part of the set's
/// value: equality and serialization see only the roles and bindings. The set
/// is not `Deserialize`, because only `add_role` and `add_binding` keep the
/// index in step with the objects.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RbacPolicySet {
    roles: Vec<Role>,
    bindings: Vec<RoleBinding>,
    #[serde(skip)]
    index: PolicyIndex,
}

/// Positions in `roles`/`bindings`, keyed by what `authorize` looks up. Every
/// list is in ascending (insertion) order.
#[derive(Debug, Clone, Default)]
struct PolicyIndex {
    /// Namespaced bindings by subject user name, then by namespace.
    namespaced: HashMap<String, HashMap<String, Vec<usize>>>,
    /// Cluster bindings by subject user name.
    cluster: HashMap<String, Vec<usize>>,
    /// Roles and cluster roles by name.
    roles: HashMap<String, Vec<usize>>,
}

impl PartialEq for RbacPolicySet {
    fn eq(&self, other: &Self) -> bool {
        self.roles == other.roles && self.bindings == other.bindings
    }
}

impl RbacPolicySet {
    /// An empty policy set (denies everything for non-admin users).
    pub fn new() -> Self {
        RbacPolicySet::default()
    }

    /// Add a role (namespaced or cluster-scoped).
    pub fn add_role(&mut self, role: Role) {
        let at = self.roles.len();
        self.index
            .roles
            .entry(role.name.clone())
            .or_default()
            .push(at);
        self.roles.push(role);
    }

    /// Add a binding (namespaced or cluster-scoped).
    pub fn add_binding(&mut self, binding: RoleBinding) {
        let at = self.bindings.len();
        for subject in &binding.subjects {
            let user = subject.user_name();
            let positions = match binding.scope {
                RoleScope::Namespaced => self
                    .index
                    .namespaced
                    .entry(user)
                    .or_default()
                    .entry(binding.namespace.clone())
                    .or_default(),
                RoleScope::Cluster => self.index.cluster.entry(user).or_default(),
            };
            // Two subjects of one binding may name the same user.
            if positions.last() != Some(&at) {
                positions.push(at);
            }
        }
        self.bindings.push(binding);
    }

    /// All roles.
    pub fn roles(&self) -> &[Role] {
        &self.roles
    }

    /// All bindings.
    pub fn bindings(&self) -> &[RoleBinding] {
        &self.bindings
    }

    /// Total number of RBAC objects (roles + bindings).
    pub fn object_count(&self) -> usize {
        self.roles.len() + self.bindings.len()
    }

    /// The first role, in insertion order, that `binding` refers to.
    fn bound_role(&self, binding: &RoleBinding) -> Option<&Role> {
        let scope = binding.role_scope;
        self.index
            .roles
            .get(binding.role_name.as_str())?
            .iter()
            .map(|&at| &self.roles[at])
            .find(|r| {
                r.scope == scope
                    && (scope == RoleScope::Cluster || r.namespace == binding.namespace)
            })
    }

    /// Evaluate an access review against the policy set.
    ///
    /// The evaluation follows the upstream semantics: a namespaced
    /// RoleBinding grants access only inside its namespace (whether it
    /// references a Role or a ClusterRole), while a ClusterRoleBinding grants
    /// access in every namespace and at cluster scope. The bindings that
    /// apply are tried in insertion order, and the first one whose role
    /// allows the access is named in the decision.
    pub fn authorize(&self, review: &AccessReview<'_>) -> AccessDecision {
        let api_group = review.kind.api_group();
        let resource = review.kind.plural();
        let verb = review.verb.as_str();
        let namespaced = self
            .index
            .namespaced
            .get(review.user)
            .and_then(|by_namespace| by_namespace.get(review.namespace))
            .map_or(&[][..], Vec::as_slice);
        let cluster = self
            .index
            .cluster
            .get(review.user)
            .map_or(&[][..], Vec::as_slice);
        for at in merge_ascending(namespaced, cluster) {
            let binding = &self.bindings[at];
            let Some(role) = self.bound_role(binding) else {
                continue;
            };
            if role.allows(api_group, resource, verb, review.name) {
                return AccessDecision::Allow {
                    granted_by: format!("{}/{}", binding.name, role.name),
                };
            }
        }
        AccessDecision::Deny {
            reason: format!(
                "no RBAC rule allows user \"{}\" to {} {} in namespace \"{}\"",
                review.user, verb, resource, review.namespace
            ),
        }
    }

    /// The set of (kind, verb) pairs a user may exercise in a namespace.
    /// Used by the attack-surface analysis to determine which endpoints RBAC
    /// leaves reachable.
    pub fn allowed_kinds(&self, user: &str, namespace: &str) -> Vec<(ResourceKind, Verb)> {
        let mut out = Vec::new();
        for kind in ResourceKind::ALL {
            for verb in Verb::ALL {
                let review = AccessReview::new(user, verb, kind, namespace, "");
                if self.authorize(&review).is_allowed() {
                    out.push((kind, verb));
                }
            }
        }
        out
    }
}

/// The union of two ascending, disjoint position lists, in ascending order.
fn merge_ascending<'s>(a: &'s [usize], b: &'s [usize]) -> impl Iterator<Item = usize> + 's {
    let (mut a, mut b) = (a.iter().copied().peekable(), b.iter().copied().peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y < x => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::role::{PolicyRule, Subject, SubjectKind};

    /// The reference evaluator: a full scan of every binding, resolving each
    /// binding's role by a full scan of every role.
    fn linear_authorize(set: &RbacPolicySet, review: &AccessReview<'_>) -> AccessDecision {
        let api_group = review.kind.api_group();
        let resource = review.kind.plural();
        let verb = review.verb.as_str();
        for binding in set.bindings() {
            if !binding.binds_user(review.user) {
                continue;
            }
            if binding.scope == RoleScope::Namespaced && binding.namespace != review.namespace {
                continue;
            }
            let scope = binding.role_scope;
            let Some(role) = set.roles().iter().find(|r| {
                r.name == binding.role_name
                    && r.scope == scope
                    && (scope == RoleScope::Cluster || r.namespace == binding.namespace)
            }) else {
                continue;
            };
            if role.allows(api_group, resource, verb, review.name) {
                return AccessDecision::Allow {
                    granted_by: format!("{}/{}", binding.name, role.name),
                };
            }
        }
        AccessDecision::Deny {
            reason: format!(
                "no RBAC rule allows user \"{}\" to {} {} in namespace \"{}\"",
                review.user, verb, resource, review.namespace
            ),
        }
    }

    /// xorshift64: a seeded, dependency-free generator for the policies below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }
    }

    const NAMESPACES: [&str; 4] = ["", "prod", "dev", "prod:a"];
    const ROLE_NAMES: [&str; 4] = ["reader", "writer", "admin", "audit2rbac-alice-prod"];
    const KINDS: [ResourceKind; 4] = [
        ResourceKind::Deployment,
        ResourceKind::ConfigMap,
        ResourceKind::Secret,
        ResourceKind::ValidatingWebhookConfiguration,
    ];
    const VERBS: [Verb; 4] = [Verb::Get, Verb::List, Verb::Create, Verb::Delete];
    const OBJECT_NAMES: [&str; 3] = ["", "app-config", "other"];
    /// Every identity the subjects below can render, plus one nobody binds.
    /// `system:serviceaccount:prod:a:b` is both `a:b` in `prod` and `b` in
    /// `prod:a`.
    const USERS: [&str; 8] = [
        "alice",
        "bob",
        "devs",
        "mallory",
        "system:serviceaccount:prod:ci",
        "system:serviceaccount::ci",
        "system:serviceaccount:prod:a:b",
        "system:serviceaccount:prod:a:ci",
    ];

    fn random_subject(rng: &mut Rng) -> Subject {
        match rng.below(3) {
            0 => Subject::user(rng.pick(&["alice", "bob"])),
            1 => Subject {
                kind: SubjectKind::Group,
                name: rng.pick(&["devs", "alice"]).to_owned(),
                namespace: String::new(),
            },
            _ => Subject::service_account(rng.pick(&["ci", "b", "a:b"]), rng.pick(&NAMESPACES)),
        }
    }

    fn random_rule(rng: &mut Rng) -> PolicyRule {
        let kind = rng.pick(&KINDS);
        let mut rule = PolicyRule::for_kind(kind, (0..1 + rng.below(3)).map(|_| rng.pick(&VERBS)));
        if rng.one_in(6) {
            rule.api_groups = vec!["*".to_owned()];
        }
        if rng.one_in(6) {
            rule.resources = vec!["*".to_owned()];
        }
        if rng.one_in(6) {
            rule.verbs = vec!["*".to_owned()];
        }
        if rng.one_in(4) {
            rule.resource_names = vec!["app-config".to_owned()];
        }
        rule
    }

    fn random_role(rng: &mut Rng) -> Role {
        let name = rng.pick(&ROLE_NAMES);
        let mut role = if rng.one_in(2) {
            Role::namespaced(name, rng.pick(&NAMESPACES))
        } else {
            Role::cluster(name)
        };
        // A cluster role's namespace is ignored; give a few one anyway.
        if role.scope == RoleScope::Cluster && rng.one_in(8) {
            role.namespace = rng.pick(&NAMESPACES).to_owned();
        }
        for _ in 0..rng.below(4) {
            role = role.with_rule(random_rule(rng));
        }
        role
    }

    fn random_binding(rng: &mut Rng, at: usize) -> RoleBinding {
        let role_name = rng.pick(&[
            "reader",
            "writer",
            "admin",
            "audit2rbac-alice-prod",
            "missing",
        ]);
        let mut binding = if rng.one_in(3) {
            RoleBinding::cluster(format!("b{at}"), role_name)
        } else {
            RoleBinding::namespaced(format!("b{at}"), rng.pick(&NAMESPACES), role_name)
        };
        // RoleBindings may reference ClusterRoles (and, as objects, the
        // other way round).
        if rng.one_in(3) {
            binding.role_scope = match binding.role_scope {
                RoleScope::Namespaced => RoleScope::Cluster,
                RoleScope::Cluster => RoleScope::Namespaced,
            };
        }
        for _ in 0..1 + rng.below(3) {
            binding = binding.with_subject(random_subject(rng));
        }
        binding
    }

    fn build(roles: &[Role], bindings: &[RoleBinding], rng: &mut Rng) -> RbacPolicySet {
        // Interleave the two kinds of object at random: only the relative
        // order within each kind is meaningful.
        let (mut r, mut b) = (roles.iter(), bindings.iter());
        let mut set = RbacPolicySet::new();
        for _ in 0..roles.len() + bindings.len() {
            if r.len() > 0 && (b.len() == 0 || rng.one_in(2)) {
                set.add_role(r.next().unwrap().clone());
            } else {
                set.add_binding(b.next().unwrap().clone());
            }
        }
        set
    }

    #[test]
    fn indexed_authorize_matches_the_linear_reference() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut allowed, mut denied, mut order_sensitive) = (0usize, 0usize, 0usize);
        for _ in 0..300 {
            let roles: Vec<Role> = (0..1 + rng.below(12))
                .map(|_| random_role(&mut rng))
                .collect();
            let bindings: Vec<RoleBinding> = (0..1 + rng.below(12))
                .map(|at| random_binding(&mut rng, at))
                .collect();
            let set = build(&roles, &bindings, &mut rng);
            assert_eq!(set.roles(), roles.as_slice());
            assert_eq!(set.bindings(), bindings.as_slice());
            let (mut shuffled_roles, mut shuffled_bindings) = (roles.clone(), bindings.clone());
            rng.shuffle(&mut shuffled_roles);
            rng.shuffle(&mut shuffled_bindings);
            let shuffled = build(&shuffled_roles, &shuffled_bindings, &mut rng);
            for _ in 0..40 {
                let (kind, verb, name) =
                    (rng.pick(&KINDS), rng.pick(&VERBS), rng.pick(&OBJECT_NAMES));
                for user in USERS {
                    for namespace in NAMESPACES {
                        let review = AccessReview::new(user, verb, kind, namespace, name);
                        let decision = set.authorize(&review);
                        assert_eq!(
                            decision,
                            linear_authorize(&set, &review),
                            "{review:?} on {set:?}"
                        );
                        let reordered = shuffled.authorize(&review);
                        assert_eq!(
                            reordered,
                            linear_authorize(&shuffled, &review),
                            "{review:?} on {shuffled:?}"
                        );
                        if decision.is_allowed() {
                            allowed += 1;
                        } else {
                            denied += 1;
                        }
                        if decision != reordered {
                            order_sensitive += 1;
                        }
                    }
                }
            }
        }
        // The generated policies exercise both outcomes, and insertion order
        // decides `granted_by` often enough for the reordering to matter.
        assert!(
            allowed > 5_000 && denied > 5_000,
            "{allowed} allowed, {denied} denied"
        );
        assert!(
            order_sensitive > 1_000,
            "{order_sensitive} order-sensitive decisions"
        );
    }

    #[test]
    fn the_index_is_not_part_of_the_value() {
        let mut a = RbacPolicySet::new();
        a.add_role(Role::namespaced("reader", "prod"));
        a.add_binding(
            RoleBinding::namespaced("bind", "prod", "reader").with_subject(Subject::user("alice")),
        );
        let mut b = RbacPolicySet::new();
        b.add_binding(a.bindings()[0].clone());
        b.add_role(a.roles()[0].clone());
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        assert_ne!(a, RbacPolicySet::new());
    }

    fn policy() -> RbacPolicySet {
        let mut set = RbacPolicySet::new();
        set.add_role(
            Role::namespaced("deployer", "prod")
                .with_rule(PolicyRule::for_kind(
                    ResourceKind::Deployment,
                    [Verb::Create, Verb::Get],
                ))
                .with_rule(PolicyRule::for_kind(ResourceKind::Service, [Verb::Create])),
        );
        set.add_binding(
            RoleBinding::namespaced("deployer-binding", "prod", "deployer")
                .with_subject(Subject::user("operator")),
        );
        set.add_role(
            Role::cluster("webhook-admin").with_rule(PolicyRule::for_kind(
                ResourceKind::ValidatingWebhookConfiguration,
                [Verb::Create],
            )),
        );
        set.add_binding(
            RoleBinding::cluster("webhook-admin-binding", "webhook-admin")
                .with_subject(Subject::user("operator")),
        );
        set
    }

    #[test]
    fn allows_granted_namespaced_access() {
        let set = policy();
        let review = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(set.authorize(&review).is_allowed());
    }

    #[test]
    fn denies_other_namespaces_and_users() {
        let set = policy();
        let other_ns = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::Deployment,
            "dev",
            "",
        );
        assert!(!set.authorize(&other_ns).is_allowed());
        let other_user = AccessReview::new(
            "mallory",
            Verb::Create,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(!set.authorize(&other_user).is_allowed());
    }

    #[test]
    fn denies_unlisted_verbs_and_kinds() {
        let set = policy();
        let delete = AccessReview::new(
            "operator",
            Verb::Delete,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(!set.authorize(&delete).is_allowed());
        let pods = AccessReview::new("operator", Verb::Create, ResourceKind::Pod, "prod", "");
        assert!(!set.authorize(&pods).is_allowed());
    }

    #[test]
    fn cluster_bindings_grant_cluster_scoped_access() {
        let set = policy();
        let review = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::ValidatingWebhookConfiguration,
            "",
            "",
        );
        assert!(set.authorize(&review).is_allowed());
    }

    #[test]
    fn rbac_does_not_inspect_request_bodies() {
        // This is the core limitation the paper exploits: the access review
        // carries no specification fields at all, so two requests that differ
        // only in (for example) `hostNetwork: true` are indistinguishable.
        let set = policy();
        let review = AccessReview::new(
            "operator",
            Verb::Create,
            ResourceKind::Deployment,
            "prod",
            "",
        );
        assert!(set.authorize(&review).is_allowed());
        // There is no API to express "allow Deployments but forbid
        // hostNetwork" — the review type has no field for it.
    }

    #[test]
    fn allowed_kinds_enumerates_the_reachable_surface() {
        let set = policy();
        let allowed = set.allowed_kinds("operator", "prod");
        assert!(allowed.contains(&(ResourceKind::Deployment, Verb::Create)));
        assert!(allowed.contains(&(ResourceKind::Service, Verb::Create)));
        assert!(!allowed.iter().any(|(k, _)| *k == ResourceKind::Pod));
    }

    #[test]
    fn empty_policy_denies_everything() {
        let set = RbacPolicySet::new();
        let review = AccessReview::new("anyone", Verb::Get, ResourceKind::Pod, "default", "");
        assert!(!set.authorize(&review).is_allowed());
        assert_eq!(set.object_count(), 0);
    }
}
