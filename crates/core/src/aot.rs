//! Ahead-of-time policy cache: persist compiled validator arenas so a cold
//! start loads enforcement state from disk instead of re-running the
//! chart-to-validator pipeline and the arena compiler.
//!
//! The cache is a sealed file ([`k8s_apiserver::storage_io::write_sealed`]:
//! magic header, CRC-32 of the payload, tmp → fsync → rename) holding one
//! record per [`ValidatorSet`] member — the workload name plus the
//! serialized arena ([`CompiledValidator::to_bytes`]). Loading restores
//! each member with [`Validator::from_arena`], which primes the compiled
//! form directly; the authoring trees are not stored (they are a
//! policy-*generation* artifact, not an enforcement one). All file traffic
//! goes through a [`StorageIo`], so the chaos plane's
//! [`k8s_apiserver::FaultyIo`] reaches it like every other artifact.
//!
//! A stale or corrupt cache is never trusted: magic, CRC, per-arena
//! decoding, cross-reference checks and trailing bytes all fail closed with
//! [`std::io::ErrorKind::InvalidData`], and the caller falls back to
//! regenerating policies. See `docs/persistence.md` for where this file
//! sits in the recovery sequence.

use std::io;
use std::path::{Path, PathBuf};

use k8s_apiserver::storage_io::{read_sealed, write_sealed, StorageIo};
use kf_yaml::binary;

use crate::compile::CompiledValidator;
use crate::validator::{Validator, ValidatorSet};

/// Magic header of the AOT arena cache file.
pub const AOT_MAGIC: &[u8; 8] = b"KFAOT1\0\0";

/// The cache file's conventional location inside a persistence directory
/// (the same directory the store snapshot and WAL live in).
pub fn aot_path(dir: &Path) -> PathBuf {
    dir.join(k8s_apiserver::persist::AOT_ARENA_FILE)
}

/// Atomically write the compiled arenas of `set` to `path` through `io`.
/// Payload: `count u32 | (workload str, arena_len u32, arena)*`.
///
/// # Errors
///
/// Filesystem errors from writing or renaming.
pub fn save_validator_set(io: &dyn StorageIo, path: &Path, set: &ValidatorSet) -> io::Result<()> {
    write_sealed(io, path, AOT_MAGIC, None, |out| {
        binary::put_u32(out, set.validators().len() as u32);
        for validator in set.validators() {
            binary::put_str(out, validator.workload());
            let arena = validator.compiled().to_bytes();
            binary::put_u32(out, arena.len() as u32);
            out.extend_from_slice(&arena);
        }
    })
}

/// Load a validator set from an AOT cache written by
/// [`save_validator_set`]. Returns `Ok(None)` when no cache exists.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for any corruption — bad magic, CRC
/// mismatch, malformed arena bytes, dangling arena indices or trailing
/// bytes — and plain I/O errors from reading the file.
pub fn load_validator_set(io: &dyn StorageIo, path: &Path) -> io::Result<Option<ValidatorSet>> {
    read_sealed(io, path, AOT_MAGIC, |cursor| {
        let count = cursor.get_u32()?;
        let mut set = ValidatorSet::new();
        for _ in 0..count {
            let workload = cursor.get_str()?;
            let arena_len = cursor.get_u32()? as usize;
            let arena = CompiledValidator::from_bytes(cursor.skip(arena_len)?)
                .map_err(|e| format!("arena for {workload:?}: {e}"))?;
            set.push(Validator::from_arena(&workload, arena));
        }
        Ok(set)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use k8s_apiserver::{FaultSchedule, FaultyIo, RealIo};
    use k8s_model::{K8sObject, ResourceKind};

    fn sample_set() -> ValidatorSet {
        let manifests = vec![kf_yaml::parse(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: int\n",
        )
        .unwrap()];
        let mut set = ValidatorSet::new();
        set.push(Validator::from_manifests("demo", &manifests).unwrap());
        set
    }

    fn temp_file(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kf-aot-{label}-{}.kfaot", std::process::id()))
    }

    fn deployment(replicas: &str) -> K8sObject {
        K8sObject::from_yaml(&format!(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: {replicas}\n"
        ))
        .unwrap()
    }

    /// The admits and denies a cache of [`sample_set`] must reproduce.
    fn assert_enforces_like_the_sample(set: &ValidatorSet) {
        assert_eq!(set.validators().len(), 1);
        assert_eq!(set.validators()[0].workload(), "demo");
        // Kind routing works off the compiled coverage of the restored arena.
        assert_eq!(set.validators_for(ResourceKind::Deployment).len(), 1);
        assert!(set.validate(&deployment("3")).is_ok());
        assert!(set.validate(&deployment("\"three\"")).is_err());
    }

    #[test]
    fn saved_set_loads_and_enforces_identically() {
        let path = temp_file("roundtrip");
        let set = sample_set();
        save_validator_set(&RealIo, &path, &set).unwrap();
        let loaded = load_validator_set(&RealIo, &path)
            .unwrap()
            .expect("cache present");
        assert_enforces_like_the_sample(&loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_overwrite_keeps_the_previous_cache_enforcing() {
        // A set that admits string replicas: had it landed, the sample's
        // deny would flip to an admit.
        let manifests = vec![kf_yaml::parse(
            "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: str\n",
        )
        .unwrap()];
        let mut other = ValidatorSet::new();
        other.push(Validator::from_manifests("other", &manifests).unwrap());
        for (label, spec) in [("torn", "write@0:torn"), ("fsync", "fsync@0:permanent")] {
            let path = temp_file(label);
            save_validator_set(&RealIo, &path, &sample_set()).unwrap();
            let io = FaultyIo::over_real(FaultSchedule::parse(spec).expect("spec"));
            assert!(
                save_validator_set(&io, &path, &other).is_err(),
                "{spec}: the injected fault surfaces"
            );
            let loaded = load_validator_set(&RealIo, &path)
                .unwrap()
                .expect("previous cache survives");
            assert_enforces_like_the_sample(&loaded);
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(path.with_extension("kfaot.tmp")).ok();
        }
    }

    #[test]
    fn missing_cache_is_none_and_corruption_is_invalid_data() {
        let path = temp_file("corrupt");
        std::fs::remove_file(&path).ok();
        assert!(load_validator_set(&RealIo, &path).unwrap().is_none());
        save_validator_set(&RealIo, &path, &sample_set()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_validator_set(&RealIo, &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
