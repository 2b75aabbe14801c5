//! The storage I/O seam under the persistence plane, plus deterministic
//! fault injection.
//!
//! Every byte the persistence plane moves to or from disk goes through
//! a [`StorageIo`] — a small trait covering exactly the operations
//! `crate::persist` performs (append-mode writes, whole-file reads, atomic
//! tmp-then-rename publication, truncation, directory syncs). Every
//! whole-file artifact (snapshot segments, the manifest, the AOT arena
//! cache) is a *sealed file* written by [`write_sealed`] and read by
//! [`read_sealed`], the one place that knows the
//! `magic | crc32(payload) | payload` frame and the [`publish`] order.
//! Production uses [`RealIo`] (a thin veneer over `std::fs`); tests, benches and the
//! chaos workload wrap it in a [`FaultyIo`] that injects failures from a
//! deterministic, seedable [`FaultSchedule`]:
//!
//! * **transient / permanent fsync failure** — the classic "fsyncgate"
//!   shapes: an `fsync` that fails once and then heals, or a device that
//!   never accepts a flush again;
//! * **ENOSPC** — writes rejected with a no-space error for a bounded run;
//! * **short write** — a prefix of the buffer lands, then the write errors;
//! * **torn write** — a prefix lands and the device *crashes*: every
//!   subsequent operation fails (models power loss mid-`write`, the case
//!   the WAL's frame CRCs exist for);
//! * **injected latency** — the op succeeds after a deterministic stall.
//!
//! A schedule addresses operations by **type and global index** (`write@7`,
//! `fsync@3`), so a given seed reproduces the identical failure at the
//! identical moment on every run — the property the chaos sweep's
//! invariants are stated against. Schedules parse from a compact spec
//! string (see [`FaultSchedule::parse`]) and render back to it
//! ([`FaultSchedule::spec`]), so a failing seed can be quoted in a bug
//! report and replayed verbatim. See `docs/robustness.md`.

use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kf_yaml::binary::{self, Cursor};

/// An open append-mode file handle, as the WAL uses one.
pub trait StorageFile: Send + std::fmt::Debug {
    /// Append the whole buffer (one WAL frame batch).
    ///
    /// # Errors
    ///
    /// The underlying write error — possibly after a prefix of the buffer
    /// already landed (a short or torn write); callers must treat the file
    /// tail as unknown after a failure.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Force written data to stable storage (`fdatasync`).
    ///
    /// # Errors
    ///
    /// The underlying fsync error. Per the fsyncgate lesson, a failed fsync
    /// says nothing about *which* pages reached the platter — callers must
    /// not advance durability cursors on failure.
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The filesystem surface the persistence plane runs on. One
/// implementation talks to the real filesystem ([`RealIo`]); [`FaultyIo`]
/// decorates any implementation with injected failures.
pub trait StorageIo: Send + Sync + std::fmt::Debug {
    /// Create a directory and its parents (persistence-dir bootstrap).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Read a whole file (snapshot load, WAL replay, compaction scan).
    ///
    /// # Errors
    ///
    /// Filesystem errors, including `NotFound` (callers map it to "empty").
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// The file's current length in bytes.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    fn file_len(&self, path: &Path) -> io::Result<u64>;

    /// Open (creating if needed) a file for appending.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Create (truncating) a file, write `bytes`, and fsync it — the
    /// tmp-file half of atomic publication. Counts as one write plus one
    /// fsync toward fault schedules.
    ///
    /// # Errors
    ///
    /// Filesystem errors; on failure the file contents are unspecified
    /// (callers publish via rename precisely so a torn tmp is invisible).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically rename `from` onto `to` (snapshot/compaction publication,
    /// corrupt-snapshot quarantine).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Truncate the file to `len` bytes and sync the truncation — the
    /// torn-tail repair used at recovery and before a degraded WAL rewrites
    /// its pending frames.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Best-effort fsync of the path's parent directory (makes a rename
    /// durable on filesystems that need it); errors are swallowed because
    /// some platforms cannot open directories at all.
    fn sync_parent_dir(&self, path: &Path);
}

/// The production [`StorageIo`]: `std::fs`, nothing else.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

#[derive(Debug)]
struct RealFile(File);

impl StorageFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl StorageIo for RealIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn sync_parent_dir(&self, path: &Path) {
        if let Some(parent) = path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
}

/// Sealed-file header: 8-byte magic plus the payload's CRC-32 (LE).
const SEALED_HEADER: usize = 12;

/// A payload decoder's failure; [`read_sealed`] reports it as
/// [`io::ErrorKind::InvalidData`].
pub type DecodeError = Box<dyn std::error::Error + Send + Sync>;

/// The temp file a publish of `path` stages through: `<name>.tmp` beside it.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_owned();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replace `path` with `bytes`: write and fsync `<name>.tmp`,
/// optionally rotate the current `path` to `keep_prev` (a missing current
/// file is fine), rename the temp over `path`, then fsync the directory
/// holding `path` so the renames are durable. The temp is durable before
/// any rename, so a crash at any point leaves either the old file (or
/// `keep_prev`) or the complete new one — never a torn artifact. One
/// publish costs exactly one write and one fsync toward a [`FaultSchedule`].
///
/// # Errors
///
/// Filesystem errors from the write or either rename.
pub fn publish(
    io: &dyn StorageIo,
    path: &Path,
    bytes: &[u8],
    keep_prev: Option<&Path>,
) -> io::Result<()> {
    let tmp = tmp_path(path);
    io.write_file(&tmp, bytes)?;
    if let Some(prev) = keep_prev {
        if let Err(e) = io.rename(path, prev) {
            if e.kind() != io::ErrorKind::NotFound {
                return Err(e);
            }
        }
    }
    io.rename(&tmp, path)?;
    io.sync_parent_dir(path);
    Ok(())
}

/// Seal the payload `encode` appends — framed as
/// `magic(8) | crc32(payload) LE(4) | payload` — and [`publish`] it at
/// `path`.
///
/// # Errors
///
/// Those of [`publish`].
pub fn write_sealed(
    io: &dyn StorageIo,
    path: &Path,
    magic: &[u8; 8],
    keep_prev: Option<&Path>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(&[0; 4]);
    encode(&mut bytes);
    let crc = binary::crc32(&bytes[SEALED_HEADER..]);
    bytes[magic.len()..SEALED_HEADER].copy_from_slice(&crc.to_le_bytes());
    publish(io, path, &bytes, keep_prev)
}

/// Read a file written by [`write_sealed`] and decode its payload;
/// `Ok(None)` when the file does not exist.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the magic or CRC does not match,
/// `decode` fails, or `decode` leaves payload bytes unconsumed; other
/// filesystem errors as they come.
pub fn read_sealed<T>(
    io: &dyn StorageIo,
    path: &Path,
    magic: &[u8; 8],
    decode: impl FnOnce(&mut Cursor<'_>) -> Result<T, DecodeError>,
) -> io::Result<Option<T>> {
    let bytes = match io.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |what: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {what}", path.display()),
        )
    };
    if bytes.len() < SEALED_HEADER || &bytes[..magic.len()] != magic {
        return Err(invalid("magic mismatch".to_owned()));
    }
    let (header, payload) = bytes.split_at(SEALED_HEADER);
    let stored = u32::from_le_bytes(header[magic.len()..].try_into().expect("4 bytes"));
    let actual = binary::crc32(payload);
    if stored != actual {
        return Err(invalid(format!(
            "CRC mismatch: stored {stored:#010x}, actual {actual:#010x}"
        )));
    }
    let mut cursor = Cursor::new(payload);
    let value = decode(&mut cursor).map_err(|e| invalid(e.to_string()))?;
    if !cursor.is_empty() {
        return Err(invalid(format!(
            "{} trailing bytes after the payload",
            cursor.remaining()
        )));
    }
    Ok(Some(value))
}

/// Which operation class a planned fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Data-moving writes (`write_all` on an append handle, `write_file`).
    Write,
    /// Flushes (`sync_data` on a handle, the fsync inside `write_file`).
    Fsync,
}

impl FaultOp {
    fn spec_name(self) -> &'static str {
        match self {
            FaultOp::Write => "write",
            FaultOp::Fsync => "fsync",
        }
    }
}

/// What happens when a planned fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail this operation and the next `n - 1` of the same class, then
    /// heal — the transient-fsync-failure shape.
    Transient(u32),
    /// Fail this and every later operation of the same class.
    Permanent,
    /// Reject `n` consecutive writes with a no-space error (the disk fills,
    /// then an operator frees space).
    Enospc(u32),
    /// Write a prefix of the buffer, then fail once (interrupted write).
    ShortWrite,
    /// Write a prefix of the buffer, then **crash the device**: every
    /// subsequent operation on this I/O fails. Models power loss
    /// mid-write — the torn frame stays on disk for recovery to truncate,
    /// and nothing after it can become durable.
    TornWrite,
    /// Succeed after stalling for this many microseconds (a saturated or
    /// failing-slowly device).
    Latency(u32),
}

impl FaultKind {
    /// How many consecutive operations of the class this fault covers.
    fn span(self) -> u64 {
        match self {
            FaultKind::Transient(n) | FaultKind::Enospc(n) => u64::from(n.max(1)),
            FaultKind::Permanent | FaultKind::TornWrite => u64::MAX,
            FaultKind::ShortWrite | FaultKind::Latency(_) => 1,
        }
    }

    fn spec_fragment(self) -> String {
        match self {
            FaultKind::Transient(n) => format!("transient*{n}"),
            FaultKind::Permanent => "permanent".to_owned(),
            FaultKind::Enospc(n) => format!("enospc*{n}"),
            FaultKind::ShortWrite => "short".to_owned(),
            FaultKind::TornWrite => "torn".to_owned(),
            FaultKind::Latency(us) => format!("latency*{us}"),
        }
    }

    fn parse_fragment(text: &str) -> Option<FaultKind> {
        if let Some(n) = text.strip_prefix("transient*") {
            return Some(FaultKind::Transient(n.parse().ok()?));
        }
        if let Some(n) = text.strip_prefix("enospc*") {
            return Some(FaultKind::Enospc(n.parse().ok()?));
        }
        if let Some(us) = text.strip_prefix("latency*") {
            return Some(FaultKind::Latency(us.parse().ok()?));
        }
        match text {
            "permanent" => Some(FaultKind::Permanent),
            "short" => Some(FaultKind::ShortWrite),
            "torn" => Some(FaultKind::TornWrite),
            _ => None,
        }
    }
}

/// One planned fault: operation class, zero-based operation index at which
/// it fires, and what it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// The operation class counted against.
    pub op: FaultOp,
    /// The zero-based index (per class) of the first affected operation.
    pub at: u64,
    /// What the fault does when it fires.
    pub kind: FaultKind,
}

/// A deterministic set of [`PlannedFault`]s.
///
/// The same schedule produces the same failures at the same operation
/// indices on every run — seeds are reproduction handles, not randomness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The planned faults (order is irrelevant; indices address operations).
    pub faults: Vec<PlannedFault>,
}

/// The xorshift64 step used to derive schedules from seeds (self-contained:
/// the plane takes no RNG dependency).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = state.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl FaultSchedule {
    /// A schedule with no faults (the [`FaultyIo`] becomes a pass-through
    /// with operation counters — useful for op-budget accounting in tests).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Derive a schedule deterministically from a seed: one to three faults
    /// with operation indices in `2..=25` (index 0 is the WAL's open-time
    /// fsync; keeping faults past boot lets every run start serving). The
    /// same seed always yields the same schedule.
    pub fn from_seed(seed: u64) -> FaultSchedule {
        let mut state = seed;
        let count = 1 + (xorshift64(&mut state) % 3);
        let mut faults = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let op = if xorshift64(&mut state).is_multiple_of(2) {
                FaultOp::Write
            } else {
                FaultOp::Fsync
            };
            let at = 2 + (xorshift64(&mut state) % 24);
            let kind = match (op, xorshift64(&mut state) % 6) {
                (_, 0) => FaultKind::Transient(1 + (xorshift64(&mut state) % 3) as u32),
                (_, 1) => FaultKind::Permanent,
                (FaultOp::Write, 2) => FaultKind::Enospc(1 + (xorshift64(&mut state) % 4) as u32),
                (FaultOp::Write, 3) => FaultKind::ShortWrite,
                (FaultOp::Write, 4) => FaultKind::TornWrite,
                (FaultOp::Fsync, 2..=4) => {
                    FaultKind::Transient(1 + (xorshift64(&mut state) % 4) as u32)
                }
                _ => FaultKind::Latency(50 + (xorshift64(&mut state) % 500) as u32),
            };
            faults.push(PlannedFault { op, at, kind });
        }
        FaultSchedule { faults }
    }

    /// Parse the compact spec format: comma-separated `op@index:kind`
    /// entries where `op` is `write` or `fsync`, `index` is the zero-based
    /// operation index, and `kind` is one of `transient*N`, `permanent`,
    /// `enospc*N`, `short`, `torn`, `latency*MICROS`. Example:
    /// `fsync@5:transient*2,write@9:torn`. The empty string is the empty
    /// schedule.
    pub fn parse(spec: &str) -> Option<FaultSchedule> {
        let mut faults = Vec::new();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let (target, kind) = entry.split_once(':')?;
            let (op, at) = target.split_once('@')?;
            let op = match op {
                "write" => FaultOp::Write,
                "fsync" => FaultOp::Fsync,
                _ => return None,
            };
            faults.push(PlannedFault {
                op,
                at: at.parse().ok()?,
                kind: FaultKind::parse_fragment(kind)?,
            });
        }
        Some(FaultSchedule { faults })
    }

    /// Render the schedule in the format [`FaultSchedule::parse`] accepts —
    /// the string to quote when reporting a failing seed.
    pub fn spec(&self) -> String {
        let mut out = String::new();
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}@{}:{}",
                fault.op.spec_name(),
                fault.at,
                fault.kind.spec_fragment()
            );
        }
        out
    }

    /// The fault (if any) covering operation `index` of class `op`.
    fn fault_for(&self, op: FaultOp, index: u64) -> Option<&PlannedFault> {
        self.faults
            .iter()
            .filter(|f| f.op == op && index >= f.at)
            .find(|f| index - f.at < f.kind.span())
    }
}

#[derive(Debug)]
struct FaultState {
    schedule: FaultSchedule,
    writes: AtomicU64,
    fsyncs: AtomicU64,
    crashed: AtomicBool,
    injected: AtomicU64,
}

impl FaultState {
    fn crash_error(&self) -> io::Error {
        io::Error::other("injected device crash: all I/O failing")
    }

    /// Account one operation and apply its scheduled fault, if any.
    /// `partial` receives the prefix to land before a short/torn failure.
    fn check(&self, op: FaultOp, mut partial: impl FnMut(f32) -> io::Result<()>) -> io::Result<()> {
        let counter = match op {
            FaultOp::Write => &self.writes,
            FaultOp::Fsync => &self.fsyncs,
        };
        let index = counter.fetch_add(1, Ordering::SeqCst);
        if self.crashed.load(Ordering::SeqCst) {
            return Err(self.crash_error());
        }
        let Some(fault) = self.schedule.fault_for(op, index) else {
            return Ok(());
        };
        match fault.kind {
            FaultKind::Latency(micros) => {
                std::thread::sleep(Duration::from_micros(u64::from(micros)));
                Ok(())
            }
            FaultKind::Transient(_) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other(format!(
                    "injected transient {} failure at op {index}",
                    fault.op.spec_name()
                )))
            }
            FaultKind::Permanent => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other(format!(
                    "injected permanent {} failure at op {index}",
                    fault.op.spec_name()
                )))
            }
            FaultKind::Enospc(_) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other(format!(
                    "no space left on device (injected at op {index})"
                )))
            }
            FaultKind::ShortWrite => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                // Half the buffer lands; the rest never reaches the file.
                let _ = partial(0.5);
                Err(io::Error::other(format!(
                    "injected short write at op {index}"
                )))
            }
            FaultKind::TornWrite => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                let _ = partial(0.5);
                self.crashed.store(true, Ordering::SeqCst);
                Err(io::Error::other(format!(
                    "injected torn write at op {index}: device crashed"
                )))
            }
        }
    }
}

/// A [`StorageIo`] decorator injecting failures from a [`FaultSchedule`].
///
/// Operation counters are shared across every file the I/O opens (the WAL,
/// snapshot tmp files, compaction rewrites), so a schedule addresses the
/// persistence plane's global operation stream — which is what makes a
/// seed's failure moment reproducible regardless of which file it lands
/// on. Reads, renames and truncations pass through unless the device has
/// crashed (a fired [`FaultKind::TornWrite`]).
#[derive(Debug)]
pub struct FaultyIo {
    inner: Arc<dyn StorageIo>,
    state: Arc<FaultState>,
}

impl FaultyIo {
    /// Wrap `inner` with `schedule`.
    pub fn new(inner: Arc<dyn StorageIo>, schedule: FaultSchedule) -> FaultyIo {
        FaultyIo {
            inner,
            state: Arc::new(FaultState {
                schedule,
                writes: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// A faulty I/O over the real filesystem.
    pub fn over_real(schedule: FaultSchedule) -> FaultyIo {
        FaultyIo::new(Arc::new(RealIo), schedule)
    }

    /// The schedule this I/O injects.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.state.schedule
    }

    /// Write operations observed so far (across all files).
    pub fn writes(&self) -> u64 {
        self.state.writes.load(Ordering::SeqCst)
    }

    /// Fsync operations observed so far (across all files).
    pub fn fsyncs(&self) -> u64 {
        self.state.fsyncs.load(Ordering::SeqCst)
    }

    /// Faults injected so far (latency stalls are not counted — they
    /// succeed).
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::Relaxed)
    }

    /// Whether a torn write has crashed the device.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    fn guard(&self) -> io::Result<()> {
        if self.state.crashed.load(Ordering::SeqCst) {
            Err(self.state.crash_error())
        } else {
            Ok(())
        }
    }
}

#[derive(Debug)]
struct FaultyFile {
    inner: Box<dyn StorageFile>,
    state: Arc<FaultState>,
}

impl StorageFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        self.state.check(FaultOp::Write, |fraction| {
            let cut = ((buf.len() as f32) * fraction) as usize;
            inner.write_all(&buf[..cut.min(buf.len())])
        })?;
        inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.state.check(FaultOp::Fsync, |_| Ok(()))?;
        self.inner.sync_data()
    }
}

impl StorageIo for FaultyIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.guard()?;
        self.inner.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // Reads survive a crashed device in this model (the page cache);
        // only mutations fail. Recovery correctness never depends on this.
        self.inner.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.guard()?;
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultyFile {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let inner = &*self.inner;
        self.state.check(FaultOp::Write, |fraction| {
            let cut = ((bytes.len() as f32) * fraction) as usize;
            inner.write_file(path, &bytes[..cut.min(bytes.len())])
        })?;
        self.state.check(FaultOp::Fsync, |_| Ok(()))?;
        self.inner.write_file(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.guard()?;
        self.inner.rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.guard()?;
        self.inner.truncate(path, len)
    }

    fn sync_parent_dir(&self, path: &Path) {
        if self.state.crashed.load(Ordering::SeqCst) {
            return;
        }
        self.inner.sync_parent_dir(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_round_trip_through_the_spec_format() {
        let schedule = FaultSchedule {
            faults: vec![
                PlannedFault {
                    op: FaultOp::Fsync,
                    at: 5,
                    kind: FaultKind::Transient(2),
                },
                PlannedFault {
                    op: FaultOp::Write,
                    at: 9,
                    kind: FaultKind::TornWrite,
                },
                PlannedFault {
                    op: FaultOp::Write,
                    at: 3,
                    kind: FaultKind::Enospc(4),
                },
                PlannedFault {
                    op: FaultOp::Write,
                    at: 7,
                    kind: FaultKind::Latency(250),
                },
            ],
        };
        let spec = schedule.spec();
        assert_eq!(
            spec,
            "fsync@5:transient*2,write@9:torn,write@3:enospc*4,write@7:latency*250"
        );
        assert_eq!(FaultSchedule::parse(&spec), Some(schedule));
        assert_eq!(FaultSchedule::parse(""), Some(FaultSchedule::none()));
        assert_eq!(FaultSchedule::parse("write@x:torn"), None);
        assert_eq!(FaultSchedule::parse("read@1:torn"), None);
        assert_eq!(FaultSchedule::parse("write@1:melt"), None);
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_distinct() {
        for seed in 0..64u64 {
            let a = FaultSchedule::from_seed(seed);
            let b = FaultSchedule::from_seed(seed);
            assert_eq!(a, b, "seed {seed} must reproduce");
            assert!(!a.faults.is_empty(), "seed {seed} plans at least one fault");
            assert!(
                a.faults.iter().all(|f| f.at >= 2),
                "seed {seed} keeps faults past boot"
            );
        }
        let distinct: std::collections::HashSet<String> = (0..64u64)
            .map(|s| FaultSchedule::from_seed(s).spec())
            .collect();
        assert!(distinct.len() > 32, "seeds spread over the schedule space");
    }

    #[test]
    fn transient_faults_cover_their_span_then_heal() {
        let schedule = FaultSchedule::parse("fsync@2:transient*2").expect("spec");
        assert!(schedule.fault_for(FaultOp::Fsync, 1).is_none());
        assert!(schedule.fault_for(FaultOp::Fsync, 2).is_some());
        assert!(schedule.fault_for(FaultOp::Fsync, 3).is_some());
        assert!(schedule.fault_for(FaultOp::Fsync, 4).is_none());
        assert!(
            schedule.fault_for(FaultOp::Write, 2).is_none(),
            "class-scoped"
        );
        let permanent = FaultSchedule::parse("write@3:permanent").expect("spec");
        assert!(permanent.fault_for(FaultOp::Write, 2).is_none());
        assert!(permanent.fault_for(FaultOp::Write, 1_000_000).is_some());
    }

    #[test]
    fn torn_write_lands_a_prefix_and_crashes_the_device() {
        let dir = std::env::temp_dir().join(format!("kf-io-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("x.log");
        let io = FaultyIo::over_real(FaultSchedule::parse("write@1:torn").expect("spec"));
        let mut file = io.open_append(&path).expect("open");
        file.write_all(b"aaaa").expect("first write clean");
        let err = file.write_all(b"bbbbbbbb").expect_err("torn write fails");
        assert!(err.to_string().contains("torn"), "{err}");
        assert!(io.crashed());
        assert!(file.write_all(b"cc").is_err(), "device stays dead");
        assert!(file.sync_data().is_err(), "fsync dead too");
        assert!(io.truncate(&path, 0).is_err(), "truncate dead too");
        let bytes = fs::read(&path).expect("read survives");
        assert_eq!(bytes, b"aaaabbbb", "exactly the prefix landed");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_heals_after_one_failure() {
        let dir = std::env::temp_dir().join(format!("kf-io-short-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("x.log");
        let io = FaultyIo::over_real(FaultSchedule::parse("write@0:short").expect("spec"));
        let mut file = io.open_append(&path).expect("open");
        assert!(file.write_all(b"xxxxxxxx").is_err(), "first write is short");
        assert_eq!(fs::read(&path).expect("read").len(), 4, "half landed");
        file.write_all(b"yy").expect("second write clean");
        assert_eq!(io.injected(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
