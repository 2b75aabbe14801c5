//! Bench-side tracing: spans recorded around calls into each layer, from
//! outside the program.
//!
//! A span is (name, start, end, parent, request). Spans live in a
//! thread-local buffer — every layer a request crosses runs on the calling
//! client's thread, including the WAL group-commit wait — and are handed
//! back when the thread's loop ends. Whether a span is recorded is decided per
//! request by the caller ([`set_request`]), so a request is either traced
//! through every layer or not at all.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use k8s_apiserver::{
    ApiRequest, ApiResponse, ApiServer, DurabilityState, DurabilityStatus, ObjectStore,
    RequestHandler, StoreBackend, StoredObject, WatchDelta, WatchError, WatchSubscriber,
};
use k8s_model::{K8sObject, ResourceKind};
use kf_yaml::Value;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// The client's call to `EnforcementProxy::handle`.
    Client,
    /// `ApiServer::handle`, as the proxy's upstream.
    Server,
    StoreWrite,
    StoreGet,
    StoreList,
    StoreEventsSince,
    StoreOther,
    /// `WatchSubscriber::try_recv`.
    WatchDrain,
    /// `WatchDispatcher::next_ready`.
    WatchWait,
}

impl Name {
    pub fn as_str(&self) -> &'static str {
        match self {
            Name::Client => "client",
            Name::Server => "server",
            Name::StoreWrite => "store.write",
            Name::StoreGet => "store.get",
            Name::StoreList => "store.list",
            Name::StoreEventsSince => "store.events_since",
            Name::StoreOther => "store.other",
            Name::WatchDrain => "watch.try_recv",
            Name::WatchWait => "watch.next_ready",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span in the same thread's buffer; 0 for a
    /// root.
    pub parent: u32,
    pub request: u64,
    /// Items returned (lists, resumes, drains); 0 otherwise.
    pub items: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Recorder {
    on: bool,
    request: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start (or stop, with `on == false`) recording this thread's spans under
/// request id `request`.
pub fn set_request(on: bool, request: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.request = request;
    });
}

/// Open a span; `None` when this thread is not recording.
pub fn begin(name: Name) -> Option<u32> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let parent = r.open.last().map_or(0, |&i| i + 1);
        let index = r.spans.len() as u32;
        let request = r.request;
        r.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
            items: 0,
        });
        r.open.push(index);
        // The clock is read last, so the bookkeeping above is outside.
        let start = now_ns();
        r.spans[index as usize].start_ns = start;
        Some(index)
    })
}

/// Close a span opened by [`begin`]; returns its duration.
pub fn end(span: Option<u32>, items: usize) -> u64 {
    let Some(index) = span else { return 0 };
    let end = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        let s = &mut r.spans[index as usize];
        s.end_ns = end;
        s.items = items as u32;
        s.duration_ns()
    })
}

pub fn timed<T>(name: Name, f: impl FnOnce() -> T) -> T {
    let span = begin(name);
    let out = f();
    end(span, 0);
    out
}

/// Hand over this thread's spans.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time: a span's duration minus the part its direct children cover.
/// Children of one span run sequentially on its thread, so they never
/// overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child[s.parent as usize - 1] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Spans written per thread: enough to inspect a run's requests one by one
/// without writing hundreds of megabytes for the read-heavy workload. The
/// metrics use every span.
pub const CSV_SPANS_PER_THREAD: usize = 100_000;

/// Write the first [`CSV_SPANS_PER_THREAD`] spans of every thread as CSV.
pub fn write_csv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,span,name,start_ns,end_ns,parent,request,items")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().take(CSV_SPANS_PER_THREAD).enumerate() {
            writeln!(
                out,
                "{t},{},{},{},{},{},{},{}",
                i + 1,
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request,
                s.items
            )?;
        }
    }
    out.flush()
}

/// The proxy's upstream in the traced run: times `ApiServer::handle`.
#[derive(Debug)]
pub struct TracedServer(pub ApiServer<TracedStore>);

impl RequestHandler for TracedServer {
    fn handle(&self, request: &ApiRequest) -> ApiResponse {
        timed(Name::Server, || self.0.handle(request))
    }
}

/// The server's store in the traced run: times every store call.
#[derive(Debug)]
pub struct TracedStore(pub ObjectStore);

impl StoreBackend for TracedStore {
    fn ingest(&self, body: &Arc<Value>) -> k8s_model::Result<K8sObject> {
        self.0.ingest(body)
    }

    fn create(&self, object: K8sObject) -> Option<u64> {
        timed(Name::StoreWrite, || StoreBackend::create(&self.0, object))
    }

    fn update(&self, object: K8sObject) -> Option<u64> {
        timed(Name::StoreWrite, || StoreBackend::update(&self.0, object))
    }

    fn upsert(&self, object: K8sObject) -> (u64, bool) {
        timed(Name::StoreWrite, || StoreBackend::upsert(&self.0, object))
    }

    fn get(&self, kind: ResourceKind, namespace: &str, name: &str) -> Option<Arc<StoredObject>> {
        timed(Name::StoreGet, || {
            StoreBackend::get(&self.0, kind, namespace, name)
        })
    }

    fn delete(&self, kind: ResourceKind, namespace: &str, name: &str) -> Option<Arc<StoredObject>> {
        timed(Name::StoreOther, || {
            StoreBackend::delete(&self.0, kind, namespace, name)
        })
    }

    fn list(&self, kind: ResourceKind, namespace: &str) -> Vec<Arc<StoredObject>> {
        let span = begin(Name::StoreList);
        let items = StoreBackend::list(&self.0, kind, namespace);
        end(span, items.len());
        items
    }

    fn delete_collection(&self, kind: ResourceKind, namespace: &str) -> usize {
        timed(Name::StoreOther, || {
            StoreBackend::delete_collection(&self.0, kind, namespace)
        })
    }

    fn apply_batch(&self, objects: Vec<K8sObject>) -> Vec<(u64, bool)> {
        timed(Name::StoreWrite, || {
            StoreBackend::apply_batch(&self.0, objects)
        })
    }

    fn events_since(
        &self,
        kind: ResourceKind,
        namespace: &str,
        revision: u64,
    ) -> Result<WatchDelta, WatchError> {
        let span = begin(Name::StoreEventsSince);
        let delta = StoreBackend::events_since(&self.0, kind, namespace, revision);
        end(span, delta.as_ref().map_or(0, |d| d.events.len()));
        delta
    }

    fn watch_revision(&self, kind: ResourceKind) -> u64 {
        timed(Name::StoreOther, || {
            StoreBackend::watch_revision(&self.0, kind)
        })
    }

    fn subscribe(
        &self,
        kind: ResourceKind,
        namespace: &str,
        revision: u64,
        capacity: usize,
    ) -> Result<WatchSubscriber, WatchError> {
        timed(Name::StoreOther, || {
            StoreBackend::subscribe(&self.0, kind, namespace, revision, capacity)
        })
    }

    fn watch_generation(&self, kind: ResourceKind, namespace: &str) -> u64 {
        StoreBackend::watch_generation(&self.0, kind, namespace)
    }

    fn wait_for_watch(
        &self,
        kind: ResourceKind,
        namespace: &str,
        seen: u64,
        timeout: Duration,
    ) -> u64 {
        StoreBackend::wait_for_watch(&self.0, kind, namespace, seen, timeout)
    }

    fn revision(&self) -> u64 {
        StoreBackend::revision(&self.0)
    }

    fn len(&self) -> usize {
        StoreBackend::len(&self.0)
    }

    fn count_by_kind(&self) -> BTreeMap<ResourceKind, usize> {
        StoreBackend::count_by_kind(&self.0)
    }

    fn snapshot_objects(&self) -> Vec<Arc<StoredObject>> {
        StoreBackend::snapshot_objects(&self.0)
    }

    fn restore(&self, objects: Vec<StoredObject>, revision: u64) {
        StoreBackend::restore(&self.0, objects, revision)
    }

    fn durability(&self) -> DurabilityStatus {
        StoreBackend::durability(&self.0)
    }

    fn durability_state(&self) -> DurabilityState {
        StoreBackend::durability_state(&self.0)
    }

    fn checkpoint_dirty_shards(&self) -> usize {
        StoreBackend::checkpoint_dirty_shards(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
            items: 0,
        };
        let spans = [
            span(Name::Client, 0, 100, 0),
            span(Name::Server, 10, 90, 1),
            span(Name::StoreWrite, 20, 60, 2),
            span(Name::StoreGet, 65, 70, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 35, 40, 5]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }
}
