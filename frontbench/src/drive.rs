//! Load generation: closed-loop clients, the open-loop writer and the
//! watch drain thread. Every response is checked against the verdict its
//! request carries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use k8s_apiserver::{
    ApiResponse, RequestHandler, ResponseStatus, WatchDispatcher, WatchSubscriber,
};
use k8s_model::ResourceKind;
use kf_yaml::Value;
use kubefence::EnforcementProxy;

use crate::gen::{Expect, Op};
use crate::setup::{acked_revision, Upstream};
use crate::trace::{self, now_ns, Name, Span};

/// Window phases, set by the main thread.
pub const PLAIN: u8 = 0;
pub const TRACED: u8 = 1;
pub const STOP: u8 = 2;

/// Request classes, carried in the top byte of a span's request id.
pub const CLASS_WRITE: u64 = 0;
pub const CLASS_DENY: u64 = 1;
pub const CLASS_GET: u64 = 2;
pub const CLASS_LIST: u64 = 3;
pub const CLASS_RESUME: u64 = 4;
pub const CLASS_DRAIN: u64 = 5;

pub fn class_of(expect: Expect) -> u64 {
    match expect {
        Expect::Write(_) => CLASS_WRITE,
        Expect::Deny => CLASS_DENY,
        Expect::Get(_) => CLASS_GET,
        Expect::List(_) => CLASS_LIST,
        Expect::Resume(..) => CLASS_RESUME,
    }
}

/// A traced request reconciles when its client-observed latency minus the
/// sum of its layers' self times is at most this many nanoseconds plus
/// [`RESIDUAL_SHARE`] of the latency. A traced run passes when at most
/// [`UNRECONCILED_PCT`] percent of its traced requests do not: a thread
/// preempted between the client's clock read and the root span's shows up
/// as residual, and on a shared machine that happens.
pub const RESIDUAL_FLOOR_NS: u64 = 2_000;
pub const RESIDUAL_SHARE: f64 = 0.05;
pub const UNRECONCILED_PCT: u64 = 5;

/// The expected outcomes the checks compare responses with.
pub struct Checks {
    /// Per key: the stored body a get must return (read-only workloads).
    pub stored: Vec<Option<Arc<Value>>>,
    /// Per collection: its keys' seeded revisions, ascending.
    pub collections: Vec<Vec<u64>>,
}

/// What one load-generating thread observed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// 403s that came from RBAC rather than the proxy.
    pub forbidden: u64,
    pub denies: u64,
    /// Completed requests per phase (plain, traced).
    pub completed: [u64; 2],
    /// Untraced (completion time, latency) pairs, in ns, of the workload's
    /// primary and secondary request classes.
    pub primary_ns: Vec<(u64, u64)>,
    pub secondary_ns: Vec<(u64, u64)>,
    /// How late the generator ran: open loop, send time minus due time; closed
    /// loop, the gap from one response to the next request.
    pub lag_ns: Vec<u64>,
    /// (key, resourceVersion) of every acknowledged write.
    pub acked: Vec<(u32, u64)>,
    pub acked_body_bytes: u64,
    /// Traced requests: client latency minus the root span, summed, and
    /// how many fell outside the reconciliation bound.
    pub residual_ns: u64,
    pub traced_requests: u64,
    pub unreconciled: u64,
    pub spans: Vec<Span>,
    /// Open loop: (revision, send time) per acknowledged write.
    pub sent: Vec<(u64, u64)>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.forbidden += other.forbidden;
        self.denies += other.denies;
        self.completed[0] += other.completed[0];
        self.completed[1] += other.completed[1];
        self.primary_ns.extend(other.primary_ns);
        self.secondary_ns.extend(other.secondary_ns);
        self.lag_ns.extend(other.lag_ns);
        self.acked.extend(other.acked);
        self.acked_body_bytes += other.acked_body_bytes;
        self.residual_ns += other.residual_ns;
        self.traced_requests += other.traced_requests;
        self.unreconciled += other.unreconciled;
        self.sent.extend(other.sent);
    }
}

fn is_proxy_denial(response: &ApiResponse) -> bool {
    response.status == ResponseStatus::Forbidden && response.message.starts_with("KubeFence:")
}

/// Check one response; returns the acknowledged revision of a write.
fn check(op: &Op, response: &ApiResponse, checks: &Checks) -> Result<Option<u64>, ()> {
    let ok = response.status == ResponseStatus::Ok;
    match op.expect {
        Expect::Write(_) => acked_revision(response).map(Some).ok_or(()),
        Expect::Deny if is_proxy_denial(response) => Ok(None),
        Expect::Get(id) => {
            let expected = checks.stored[id as usize].as_ref().ok_or(())?;
            match response.body.as_ref().and_then(|b| b.object()) {
                Some(body) if ok && Arc::ptr_eq(body, expected) => Ok(None),
                _ => Err(()),
            }
        }
        Expect::List(c) => {
            let want = checks.collections[c as usize].len();
            match response.body.as_ref().and_then(|b| b.items()) {
                Some(items) if ok && items.len() == want => Ok(None),
                _ => Err(()),
            }
        }
        Expect::Resume(c, _) => {
            let cursor = op.request.resource_version.unwrap_or(0);
            let seeded = &checks.collections[c as usize];
            let want = seeded.len() - seeded.partition_point(|&rv| rv <= cursor);
            match response.body.as_ref().and_then(|b| b.watch_events()) {
                Some((events, _)) if ok => {
                    let delivered: Vec<u64> = events
                        .iter()
                        .filter(|e| e.object.is_some())
                        .map(|e| e.revision)
                        .collect();
                    let ordered = delivered.windows(2).all(|w| w[0] < w[1]);
                    if ordered
                        && delivered.len() == want
                        && delivered.iter().all(|rv| seeded.binary_search(rv).is_ok())
                    {
                        Ok(None)
                    } else {
                        Err(())
                    }
                }
                _ => Err(()),
            }
        }
        Expect::Deny => Err(()),
    }
}

/// Send one request through the front door, timed by the client; records
/// its spans when `traced`.
fn send<U: Upstream>(
    proxy: &EnforcementProxy<U>,
    op: &Op,
    traced: bool,
    request_id: u64,
    tally: &mut Tally,
) -> (ApiResponse, u64, u64) {
    trace::set_request(traced, (class_of(op.expect) << 56) | request_id);
    let t0 = now_ns();
    let span = trace::begin(Name::Client);
    let response = proxy.handle(&op.request);
    let root = trace::end(span, 0);
    let t1 = now_ns();
    trace::set_request(false, 0);
    let latency = t1 - t0;
    tally.completed[traced as usize] += 1;
    if traced {
        let residual = latency.saturating_sub(root);
        tally.residual_ns += residual;
        tally.traced_requests += 1;
        if residual as f64 > RESIDUAL_FLOOR_NS as f64 + RESIDUAL_SHARE * latency as f64 {
            tally.unreconciled += 1;
        }
    }
    (response, t0, t1)
}

/// Record the outcome of one checked request.
fn account(op: &Op, response: &ApiResponse, checks: &Checks, tally: &mut Tally) -> Option<u64> {
    tally.attempted += 1;
    if response.status == ResponseStatus::Forbidden && !is_proxy_denial(response) {
        tally.forbidden += 1;
    }
    match check(op, response, checks) {
        Ok(Some(rv)) => {
            if let Expect::Write(id) = op.expect {
                tally.acked.push((id, rv));
                tally.acked_body_bytes += op.request.body.raw().map_or(0, |b| b.len() as u64);
            }
            Some(rv)
        }
        Ok(None) => {
            if op.expect == Expect::Deny {
                tally.denies += 1;
            }
            None
        }
        Err(()) => {
            tally.failed += 1;
            None
        }
    }
}

/// One closed-loop client: next request as soon as the previous response
/// is checked, cycling through its generated stream until the phase is
/// [`STOP`]. `primary` selects the class whose latency is the workload's
/// primary metric; every other class is secondary.
pub fn closed_loop<U: Upstream>(
    proxy: &EnforcementProxy<U>,
    ops: &[Op],
    checks: &Checks,
    phase: &AtomicU8,
    client: u64,
    primary: u64,
) -> Tally {
    let mut tally = Tally::default();
    let mut last_done = None;
    let mut i = 0usize;
    loop {
        let mode = phase.load(Ordering::Acquire);
        if mode == STOP {
            break;
        }
        let traced = mode == TRACED;
        let op = &ops[i % ops.len()];
        i += 1;
        let (response, t0, t1) = send(proxy, op, traced, (client << 48) | i as u64, &mut tally);
        if let Some(done) = last_done {
            tally.lag_ns.push(t0 - done);
        }
        if !traced {
            if class_of(op.expect) == primary {
                tally.primary_ns.push((t1, t1 - t0));
            } else {
                tally.secondary_ns.push((t1, t1 - t0));
            }
        }
        account(op, &response, checks, &mut tally);
        last_done = Some(now_ns());
    }
    tally.spans = trace::take();
    tally
}

/// The open-loop writer: request `n` is due at `start + n / rate`, whether
/// or not earlier ones finished; its latency runs from that due time.
pub fn open_loop_writer<U: Upstream>(
    proxy: &EnforcementProxy<U>,
    ops: &[Op],
    checks: &Checks,
    phase: &AtomicU8,
    rate: f64,
) -> Tally {
    let mut tally = Tally::default();
    let period = 1e9 / rate;
    let start = now_ns();
    for n in 0u64.. {
        let due = start + (n as f64 * period) as u64;
        // Sleep, not spin: spinning would bill the writer's wait to the
        // CPU-per-request metric. Oversleeping shows in `lag_ns`.
        let now = now_ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let mode = phase.load(Ordering::Acquire);
        if mode == STOP {
            break;
        }
        let op = &ops[n as usize % ops.len()];
        let (response, t0, t1) = send(proxy, op, mode == TRACED, n, &mut tally);
        tally.lag_ns.push(t0 - due);
        if mode != TRACED {
            tally.primary_ns.push((t1, t1 - due));
        }
        if let Some(rv) = account(op, &response, checks, &mut tally) {
            tally.sent.push((rv, t0));
        }
    }
    tally.spans = trace::take();
    tally
}

/// One push subscriber as the drain thread sees it.
pub struct Subscriber {
    pub handle: WatchSubscriber,
    pub kind: ResourceKind,
    pub namespace: String,
    /// Last revision delivered per object name.
    pub last: HashMap<String, u64>,
    pub last_revision: u64,
    pub out_of_order: u64,
    pub evicted: bool,
}

/// What the drain thread observed.
#[derive(Default)]
pub struct Drain {
    /// (revision, drained at) per delivered event.
    pub delivered: Vec<(u64, u64)>,
    pub drains: u64,
    pub nonempty_drains: u64,
    pub spans: Vec<Span>,
}

/// The drain thread: wait on the dispatcher for a ready subscriber, drain
/// it, check its stream is revision-ordered. Runs until `done` is set and
/// no subscriber has become ready for a while.
pub fn drain(
    dispatcher: &WatchDispatcher,
    subscribers: &mut [Subscriber],
    phase: &AtomicU8,
    done: &AtomicBool,
) -> Drain {
    let mut out = Drain::default();
    for n in 0u64.. {
        let traced = phase.load(Ordering::Acquire) == TRACED;
        trace::set_request(traced, (CLASS_DRAIN << 56) | n);
        let wait = trace::begin(Name::WatchWait);
        let ready = dispatcher.next_ready(Duration::from_millis(5));
        trace::end(wait, 0);
        let Some(token) = ready else {
            trace::set_request(false, 0);
            if done.load(Ordering::Acquire) {
                break;
            }
            continue;
        };
        let sub = &mut subscribers[token];
        let span = trace::begin(Name::WatchDrain);
        let batch = sub.handle.try_recv();
        let drained_at = now_ns();
        trace::end(span, batch.as_ref().map_or(0, |b| b.len()));
        trace::set_request(false, 0);
        out.drains += 1;
        match batch {
            Ok(events) => {
                if !events.is_empty() {
                    out.nonempty_drains += 1;
                }
                for event in events.into_iter().filter(|e| e.object.is_some()) {
                    if event.revision <= sub.last_revision {
                        sub.out_of_order += 1;
                    }
                    sub.last_revision = event.revision;
                    out.delivered.push((event.revision, drained_at));
                    sub.last.insert(event.name, event.revision);
                }
            }
            Err(_) => sub.evicted = true,
        }
    }
    out.spans = trace::take();
    out
}

/// After the drain: every subscriber's stream must end at the stored
/// revision of every object in its collection. Returns the subscribers that
/// fail that, were evicted, or saw revisions out of order.
pub fn subscriber_mismatches<U: Upstream>(
    proxy: &EnforcementProxy<U>,
    subscribers: &[Subscriber],
) -> u64 {
    let store = proxy.upstream().object_store();
    let mut finals: HashMap<(ResourceKind, &str), Vec<(String, u64)>> = HashMap::new();
    subscribers
        .iter()
        .filter(|s| {
            let stored = finals
                .entry((s.kind, s.namespace.as_str()))
                .or_insert_with(|| {
                    store
                        .list(s.kind, &s.namespace)
                        .iter()
                        .map(|o| (o.object.name().to_owned(), o.resource_version))
                        .collect()
                });
            s.evicted
                || s.out_of_order > 0
                || stored.iter().any(|(name, rv)| s.last.get(name) != Some(rv))
        })
        .count() as u64
}
