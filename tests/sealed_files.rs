//! Every whole-file artifact of a persistence directory — snapshot
//! segments, the manifest, the AOT arena cache — is a sealed file
//! (`magic | crc32(payload) | payload`, published tmp → rename → directory
//! fsync). These tests pin the publish op sequence (and so the write/fsync
//! indices fault schedules address), plus fail-closed reads of hostile
//! bytes across all three formats.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use k8s_apiserver::persist::{
    segment_file, FsyncPolicy, PersistConfig, Persistence, MANIFEST_FILE, MANIFEST_PREV_FILE,
    WAL_FILE,
};
use k8s_apiserver::storage_io::{StorageFile, StorageIo};
use k8s_apiserver::{FaultSchedule, FaultyIo, RealIo};
use k8s_model::K8sObject;
use kf_yaml::binary;
use kubefence::{aot_path, load_validator_set, save_validator_set, Validator, ValidatorSet};

fn temp_dir(label: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kf-sealed-{label}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn pod(name: &str) -> K8sObject {
    K8sObject::from_yaml(&format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\n  namespace: default\nspec:\n  \
         containers:\n    - name: c\n      image: nginx\n"
    ))
    .unwrap()
}

fn validator_set() -> ValidatorSet {
    let manifests = vec![kf_yaml::parse(
        "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: int\n",
    )
    .unwrap()];
    let mut set = ValidatorSet::new();
    set.push(Validator::from_manifests("demo", &manifests).unwrap());
    set
}

/// One observed storage operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    CreateDirAll(PathBuf),
    Read(PathBuf),
    FileLen(PathBuf),
    OpenAppend(PathBuf),
    WriteFile(PathBuf),
    Rename(PathBuf, PathBuf),
    Truncate(PathBuf),
    SyncParentDir(PathBuf),
    Append(PathBuf),
    SyncData(PathBuf),
}

/// A [`StorageIo`] over the real filesystem that logs every operation,
/// whatever its outcome.
#[derive(Debug, Clone, Default)]
struct RecordingIo {
    log: Arc<Mutex<Vec<Op>>>,
}

impl RecordingIo {
    fn push(&self, op: Op) {
        self.log.lock().unwrap().push(op);
    }

    fn len(&self) -> usize {
        self.log.lock().unwrap().len()
    }

    fn since(&self, start: usize) -> Vec<Op> {
        self.log.lock().unwrap()[start..].to_vec()
    }
}

#[derive(Debug)]
struct RecordingFile {
    path: PathBuf,
    inner: Box<dyn StorageFile>,
    io: RecordingIo,
}

impl StorageFile for RecordingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.io.push(Op::Append(self.path.clone()));
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.io.push(Op::SyncData(self.path.clone()));
        self.inner.sync_data()
    }
}

impl StorageIo for RecordingIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.push(Op::CreateDirAll(path.to_owned()));
        RealIo.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.push(Op::Read(path.to_owned()));
        RealIo.read(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.push(Op::FileLen(path.to_owned()));
        RealIo.file_len(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.push(Op::OpenAppend(path.to_owned()));
        Ok(Box::new(RecordingFile {
            path: path.to_owned(),
            inner: RealIo.open_append(path)?,
            io: self.clone(),
        }))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.push(Op::WriteFile(path.to_owned()));
        RealIo.write_file(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.push(Op::Rename(from.to_owned(), to.to_owned()));
        RealIo.rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.push(Op::Truncate(path.to_owned()));
        RealIo.truncate(path, len)
    }

    fn sync_parent_dir(&self, path: &Path) {
        self.push(Op::SyncParentDir(path.to_owned()));
        RealIo.sync_parent_dir(path);
    }
}

/// The exact ops of publishing `path` (staged through `<name>.tmp`),
/// rotating the current file to `prev` first when given.
fn publish_ops(path: &Path, prev: Option<&Path>) -> Vec<Op> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut ops = vec![Op::WriteFile(tmp.clone())];
    if let Some(prev) = prev {
        ops.push(Op::Rename(path.to_owned(), prev.to_owned()));
    }
    ops.push(Op::Rename(tmp, path.to_owned()));
    ops.push(Op::SyncParentDir(path.to_owned()));
    ops
}

/// Assert `ops` contains `expected` as one contiguous run.
fn assert_contiguous(ops: &[Op], expected: &[Op]) {
    assert!(
        ops.windows(expected.len()).any(|w| w == expected),
        "missing contiguous publish {expected:#?}\nin {ops:#?}"
    );
}

/// Segment, manifest, WAL-compaction and AOT publishes are each exactly one
/// tmp `write_file`, the renames, and one directory fsync on a path inside
/// the persistence directory — and a checkpoint costs exactly one write
/// and one fsync per published file, plus the WAL's pre-compaction fsync.
#[test]
fn every_publish_is_one_tmp_write_then_renames_then_one_directory_sync() {
    let dir = temp_dir("publish");
    let recording = RecordingIo::default();
    let faulty = Arc::new(FaultyIo::new(
        Arc::new(recording.clone()),
        FaultSchedule::none(),
    ));
    let config = PersistConfig::new(&dir).with_fsync(FsyncPolicy::Always);
    let (store, persistence, _) =
        Persistence::open_with_io(config, Arc::clone(&faulty) as Arc<dyn StorageIo>).expect("open");
    for i in 0..6 {
        store.upsert(pod(&format!("pod-{i}")));
    }
    for round in 0..2 {
        if round == 1 {
            store.upsert(pod("pod-0"));
        }
        let (start, writes, fsyncs) = (recording.len(), faulty.writes(), faulty.fsyncs());
        let report = persistence.checkpoint(&store).expect("checkpoint");
        let ops = recording.since(start);
        let published: Vec<PathBuf> = ops
            .iter()
            .filter_map(|op| match op {
                Op::WriteFile(tmp) => tmp.to_str()?.strip_suffix(".tmp").map(PathBuf::from),
                _ => None,
            })
            .collect();
        let manifest = dir.join(MANIFEST_FILE);
        for path in &published {
            let prev = (*path == manifest).then(|| dir.join(MANIFEST_PREV_FILE));
            assert_contiguous(&ops, &publish_ops(path, prev.as_deref()));
        }
        let segments = published
            .iter()
            .filter(|p| (0..report.total_shards).any(|s| **p == dir.join(segment_file(s))))
            .count();
        assert_eq!(segments, report.dirty_shards, "round {round}: segments");
        assert_eq!(published.len(), segments + 2, "round {round}");
        assert!(published.contains(&manifest));
        assert!(published.contains(&dir.join(WAL_FILE)));
        assert!(
            !ops.iter().any(|op| matches!(op, Op::Append(_))),
            "a checkpoint appends nothing"
        );
        for op in &ops {
            if let Op::SyncParentDir(path) = op {
                assert_eq!(path.parent(), Some(dir.as_path()), "{op:?}");
            }
        }
        let files = (report.dirty_shards + 2) as u64;
        assert_eq!(faulty.writes() - writes, files, "round {round}: writes");
        assert_eq!(faulty.fsyncs() - fsyncs, files + 1, "round {round}: fsyncs");
    }
    let aot = aot_path(&dir);
    let (start, writes, fsyncs) = (recording.len(), faulty.writes(), faulty.fsyncs());
    save_validator_set(&*faulty, &aot, &validator_set()).expect("AOT save");
    assert_eq!(recording.since(start), publish_ops(&aot, None));
    assert_eq!((faulty.writes() - writes, faulty.fsyncs() - fsyncs), (1, 1));
    std::fs::remove_dir_all(&dir).ok();
}

/// How a read of one (possibly mutated) artifact came out.
#[derive(Debug, PartialEq, Eq)]
enum Read {
    Ok,
    InvalidData,
}

/// Reopen the persistence directory holding `path` and report whether
/// recovery accepted `path` or quarantined it. A quarantine is how
/// recovery surfaces a segment or manifest read's `InvalidData`; an object
/// body that decodes but is no Kubernetes object fails the open itself with
/// `InvalidData`.
fn reopen(path: &Path) -> Read {
    let dir = path.parent().expect("artifact inside the directory");
    let mut config = PersistConfig::new(dir);
    config.journal_capacity = 8;
    config.journal_shards = 1;
    match Persistence::open(config) {
        Ok((_, _, report)) => {
            let mut corrupt = path.as_os_str().to_owned();
            corrupt.push(".corrupt");
            match report.snapshot_quarantined {
                None => Read::Ok,
                Some(quarantined) => {
                    assert_eq!(quarantined, PathBuf::from(corrupt), "only the artifact");
                    std::fs::remove_file(&quarantined).expect("clear quarantine");
                    Read::InvalidData
                }
            }
        }
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            Read::InvalidData
        }
    }
}

fn load_aot(path: &Path) -> Read {
    match load_validator_set(&RealIo, path) {
        Ok(set) => {
            assert!(set.is_some(), "the file exists");
            Read::Ok
        }
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            Read::InvalidData
        }
    }
}

/// `bytes` re-sealed around a different payload, with a valid CRC, so the
/// payload reaches the format's decoder.
fn reseal(bytes: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..8].to_vec();
    out.extend_from_slice(&binary::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Hostile bytes in every sealed format. Cutting the file anywhere or
/// flipping any byte is `InvalidData`; re-sealed payload mutations reach
/// the decoders and give `Ok` or `InvalidData`, never a panic; a complete
/// payload with trailing bytes is `InvalidData`. The intact file
/// round-trips and no `.tmp` is left behind.
#[test]
fn hostile_sealed_bytes_fail_closed_in_every_format() {
    let dir = temp_dir("hostile");
    let segment_path;
    {
        let (store, persistence, _) = Persistence::open(PersistConfig::new(&dir)).expect("open");
        store.upsert(pod("only"));
        let report = persistence.checkpoint(&store).expect("checkpoint");
        assert_eq!(report.objects, 1);
        segment_path = (0..report.total_shards)
            .map(|s| dir.join(segment_file(s)))
            .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .expect("segments written");
    }
    let aot = aot_path(&dir);
    save_validator_set(&RealIo, &aot, &validator_set()).expect("AOT save");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("list")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "no temp files left: {leftovers:?}");

    type Reader = fn(&Path) -> Read;
    let formats: [(&str, PathBuf, Reader); 3] = [
        ("segment", segment_path, reopen),
        ("manifest", dir.join(MANIFEST_FILE), reopen),
        ("aot", aot, load_aot),
    ];
    for (name, path, read) in formats {
        let good = std::fs::read(&path).expect("read artifact");
        let payload = &good[12..];
        let check = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("write case");
            read(&path)
        };
        assert_eq!(check(&good), Read::Ok, "{name}: intact file loads");
        for cut in 0..good.len() {
            assert_eq!(
                check(&good[..cut]),
                Read::InvalidData,
                "{name}: cut at {cut}"
            );
        }
        for at in 0..good.len() {
            let mut flipped = good.clone();
            flipped[at] ^= 0xFF;
            assert_eq!(check(&flipped), Read::InvalidData, "{name}: flip at {at}");
        }
        for trailing in [&[0u8][..], &[0xFF; 9]] {
            let extended = [payload, trailing].concat();
            assert_eq!(
                check(&reseal(&good, &extended)),
                Read::InvalidData,
                "{name}: {} trailing bytes",
                trailing.len()
            );
        }
        // Behind a valid CRC: whatever the decoder makes of it, no panic
        // and no error other than `InvalidData`.
        for cut in 0..payload.len() {
            check(&reseal(&good, &payload[..cut]));
        }
        for at in 0..payload.len() {
            let mut flipped = payload.to_vec();
            flipped[at] ^= 0xFF;
            check(&reseal(&good, &flipped));
        }
        std::fs::write(&path, &good).expect("restore artifact");
    }
    std::fs::remove_dir_all(&dir).ok();
}
