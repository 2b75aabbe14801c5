//! The RBAC baseline behaves like the paper describes: `audit2rbac` infers a
//! least-privilege policy that admits the recorded workload and nothing else —
//! but, by construction, it cannot constrain specification fields.

use k8s_apiserver::{ApiRequest, ApiServer, RequestHandler};
use k8s_model::{K8sObject, ResourceKind, Verb};
use k8s_rbac::{audit2rbac, AccessReview, Audit2RbacOptions};
use kf_workloads::{DeploymentDriver, Operator};

fn learned_policy(operator: Operator) -> k8s_rbac::RbacPolicySet {
    let server = ApiServer::new().with_admin(&operator.user());
    DeploymentDriver::new(operator).deploy(&server);
    audit2rbac(
        server.audit_log().events(),
        &operator.user(),
        &Audit2RbacOptions::default(),
    )
}

#[test]
fn learned_policies_admit_the_recorded_workload() {
    for operator in Operator::ALL {
        let policy = learned_policy(operator);
        let server = ApiServer::new();
        server.set_rbac_policy(Some(policy));
        let outcomes = DeploymentDriver::new(operator).deploy(&server);
        assert!(
            DeploymentDriver::all_succeeded(&outcomes),
            "{operator}: replay under the learned policy failed: {:?}",
            outcomes
                .iter()
                .filter(|o| !o.response.is_success())
                .map(|o| (&o.object_name, &o.response.message))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn learned_policies_deny_unused_kinds_and_foreign_users() {
    let operator = Operator::Nginx;
    let policy = learned_policy(operator);
    let user = operator.user();
    // Nginx never touches Secrets or Pods.
    for kind in [ResourceKind::Secret, ResourceKind::Pod] {
        let review = AccessReview::new(&user, Verb::Create, kind, operator.namespace(), "");
        assert!(
            !policy.authorize(&review).is_allowed(),
            "{kind} should be denied"
        );
    }
    // Another identity gains nothing from this policy.
    let review = AccessReview::new(
        "operator:mlflow",
        Verb::Create,
        ResourceKind::Deployment,
        operator.namespace(),
        "",
    );
    assert!(!policy.authorize(&review).is_allowed());
}

#[test]
fn rbac_cannot_express_field_level_restrictions() {
    // The same endpoint + verb with a benign and a malicious body: RBAC
    // treats both identically (Figure 11's argument).
    let operator = Operator::Nginx;
    let policy = learned_policy(operator);
    let server = ApiServer::new();
    server.set_rbac_policy(Some(policy));

    let benign = operator
        .workload()
        .default_objects()
        .into_iter()
        .find(|o| o.kind() == ResourceKind::Deployment)
        .unwrap();
    let mut malicious_body = benign.body().clone();
    malicious_body
        .set_path(
            &kf_yaml::Path::parse("spec.template.spec.hostNetwork").unwrap(),
            kf_yaml::Value::Bool(true),
        )
        .unwrap();
    let malicious = K8sObject::from_value(malicious_body).unwrap();

    let mut benign_request = ApiRequest::create(&operator.user(), &benign);
    benign_request.namespace = operator.namespace().to_owned();
    let mut malicious_request = ApiRequest::create(&operator.user(), &malicious);
    malicious_request.namespace = operator.namespace().to_owned();

    assert!(server.handle(&benign_request).is_success());
    let response = server.handle(&malicious_request);
    assert!(
        response.is_success(),
        "RBAC has no mechanism to reject the malicious body"
    );
    // …and the exploit is recorded as having reached vulnerable code.
    assert!(server
        .exploits()
        .iter()
        .any(|e| e.cve_id == "CVE-2020-15257"));
}

#[test]
fn audit_logs_contain_request_bodies_that_rbac_cannot_use() {
    // The information needed for field-level decisions is present in the
    // audit log (the paper's Figure 11 shows it), it is just not expressible
    // in RBAC policies.
    let operator = Operator::Mlflow;
    let server = ApiServer::new().with_admin(&operator.user());
    DeploymentDriver::new(operator).deploy(&server);
    let log = server.audit_log();
    assert!(log
        .events()
        .iter()
        .filter(|e| e.verb == Verb::Create)
        .all(|e| e.request_body.is_some()));
}
