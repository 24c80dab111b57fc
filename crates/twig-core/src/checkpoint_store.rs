//! Durable checkpoint persistence and the startup recovery ladder.
//!
//! [`CheckpointStore`] writes opaque checkpoint payloads atomically (temp
//! file + fsync + rename) and rotates the newest `keep` generations, so a
//! crash mid-write can never destroy an existing good generation. The free
//! function [`recover`] implements the ladder: try the newest generation,
//! fall back one generation per corrupt or mismatched checkpoint, and
//! cold-start when every generation is exhausted — each rung counted in the
//! run's [`RecoveryStats`] and mirrored into telemetry (`ckpt.load`,
//! `ckpt.corrupt`, `ckpt.cold_start`). [`ScratchStore`] is a store that
//! lives only as long as the run or test that needs one.
//!
//! Anything that serializes itself through [`Checkpointable`] can ride the
//! ladder; [`Twig`](crate::Twig) implements it over the twig-rl versioned
//! codec, and [`SafetyGovernor`](crate::SafetyGovernor) arms periodic
//! writes around any checkpointable manager.

use crate::TwigError;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use twig_telemetry::Telemetry;

const CKPT_PREFIX: &str = "ckpt-";
const CKPT_SUFFIX: &str = ".bin";
const TMP_NAME: &str = "ckpt.tmp";

/// A manager whose full learner state can round-trip through bytes — the
/// durability contract used by [`CheckpointStore`] and [`recover`].
pub trait Checkpointable {
    /// Serializes the current learner state.
    ///
    /// # Errors
    ///
    /// Returns an error when the state cannot be serialized.
    fn checkpoint_bytes(&self) -> Result<Vec<u8>, TwigError>;

    /// Restores learner state from bytes produced by
    /// [`checkpoint_bytes`](Self::checkpoint_bytes).
    ///
    /// # Errors
    ///
    /// Returns an error when the bytes are corrupt or were produced by an
    /// incompatible configuration; the implementation must leave itself
    /// usable (at worst unchanged) in that case.
    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), TwigError>;
}

/// Rotating on-disk checkpoint store with atomic writes.
///
/// Generations are files named `ckpt-NNNNNNNN.bin` under one directory,
/// with a monotonically increasing sequence number; only the newest `keep`
/// survive a write. Every write lands in a temp file first, is fsynced,
/// and is renamed into place, so readers only ever see complete payloads
/// under a final name (torn writes can still corrupt *content* — that is
/// what the codec CRC and the recovery ladder are for).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`, keeping the
    /// newest `keep` generations.
    ///
    /// # Errors
    ///
    /// Returns an error when `keep` is zero or the directory cannot be
    /// created.
    pub fn create(dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        if keep == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint store must keep at least one generation",
            ));
        }
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // A crash between `File::create(tmp)` and the rename leaves an
        // orphan temp file behind. It was never a valid generation (readers
        // only trust `ckpt-*.bin` names), so reclaim it on open.
        let _ = fs::remove_file(dir.join(TMP_NAME));
        Ok(CheckpointStore { dir, keep })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many generations survive a write.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Atomically writes one checkpoint generation and prunes old ones.
    /// Returns the path of the new generation.
    ///
    /// # Errors
    ///
    /// Returns an error when the payload cannot be durably written.
    pub fn write(&self, payload: &[u8]) -> io::Result<PathBuf> {
        // Saturate instead of wrapping at the end of the sequence space:
        // after ~5.8e11 years of 1 Hz epochs the store overwrites the
        // `u64::MAX` generation in place (still atomically) rather than
        // wrapping to 0, which `sequences()` would sort as the *oldest*
        // generation and prune the real history.
        let seq = self
            .sequences()?
            .first()
            .map_or(0, |&s| s.saturating_add(1));
        let tmp = self.dir.join(TMP_NAME);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        let path = self.dir.join(format!("{CKPT_PREFIX}{seq:08}{CKPT_SUFFIX}"));
        fs::rename(&tmp, &path)?;
        // Fsync the directory so the rename itself is durable; best-effort
        // because not every platform lets a directory be opened for sync.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.prune()?;
        Ok(path)
    }

    /// Paths of all generations, newest first.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be listed.
    pub fn generations(&self) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .sequences()?
            .into_iter()
            .map(|s| self.dir.join(format!("{CKPT_PREFIX}{s:08}{CKPT_SUFFIX}")))
            .collect())
    }

    /// Reads one generation's payload.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be read.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    /// Sequence numbers present on disk, newest first.
    fn sequences(&self) -> io::Result<Vec<u64>> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix(CKPT_PREFIX)
                .and_then(|s| s.strip_suffix(CKPT_SUFFIX))
            else {
                continue;
            };
            if let Ok(seq) = stem.parse::<u64>() {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        Ok(seqs)
    }

    fn prune(&self) -> io::Result<()> {
        for &seq in self.sequences()?.iter().skip(self.keep) {
            let _ = fs::remove_file(self.dir.join(format!("{CKPT_PREFIX}{seq:08}{CKPT_SUFFIX}")));
        }
        // Also sweep any orphan temp file a crashed writer left behind
        // (write() renames its temp away before pruning, so a live temp
        // file is never present here).
        let _ = fs::remove_file(self.dir.join(TMP_NAME));
        Ok(())
    }
}

/// A [`CheckpointStore`] in a directory of its own under the system temp
/// dir, removed with everything in it when dropped — so an early `?` return
/// or a panic between creation and the end of the run leaves nothing
/// behind. Directories are unique per process and per call, so concurrent
/// runs never share one. It derefs to the store; `clone()` hands out a plain
/// `CheckpointStore` on the same directory (to arm a governor with), which
/// stays usable only while the scratch store lives.
#[derive(Debug)]
pub struct ScratchStore {
    store: CheckpointStore,
}

impl ScratchStore {
    /// Creates an empty store keeping `keep` generations in a fresh
    /// directory whose name starts with `twig-{tag}-`.
    ///
    /// # Errors
    ///
    /// As [`CheckpointStore::create`].
    pub fn create(tag: &str, keep: usize) -> io::Result<Self> {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("twig-{tag}-{}-{n}", std::process::id()));
        // A dead process with the same pid may have left this name behind.
        let _ = fs::remove_dir_all(&dir);
        Ok(ScratchStore {
            store: CheckpointStore::create(dir, keep)?,
        })
    }
}

impl std::ops::Deref for ScratchStore {
    type Target = CheckpointStore;

    fn deref(&self) -> &CheckpointStore {
        &self.store
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(self.store.dir());
    }
}

/// How a [`recover`] run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// State was restored from generation `generation` (0 = newest).
    Restored {
        /// Ladder rung the restore succeeded on (0 = newest generation).
        generation: usize,
    },
    /// Every generation was missing, unreadable or corrupt: the manager
    /// keeps its freshly initialised (cold) state.
    ColdStart,
}

twig_telemetry::stats! {
    /// What one recovery-ladder run did, rung by rung. Every field is
    /// mirrored into telemetry under the matching `ckpt.*` counter.
    pub struct RecoveryStats {
        /// Generations restored (at most one per run).
        loads => "ckpt.load",
        /// Generations rejected as unreadable, corrupt or mismatched.
        corrupt => "ckpt.corrupt",
        /// Runs that exhausted the ladder into a cold start (at most one
        /// per run).
        cold_starts => "ckpt.cold_start",
    }
}

/// Outcome and accounting of one recovery-ladder run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// How the run ended.
    pub outcome: RecoveryOutcome,
    /// Generations tried and rejected before the outcome.
    pub ladder_depth: usize,
    /// The rungs this run climbed.
    pub stats: RecoveryStats,
}

impl RecoveryReport {
    /// Whether any generation was restored (false = cold start).
    pub fn recovered(&self) -> bool {
        matches!(self.outcome, RecoveryOutcome::Restored { .. })
    }
}

/// Runs the recovery ladder: restore `target` from the newest generation
/// in `store`, falling back one generation per corrupt or mismatched
/// checkpoint, cold-starting when all are exhausted. Each rung is counted
/// in the report's [`RecoveryStats`] and mirrored into `telemetry`.
pub fn recover<M: Checkpointable>(
    store: &CheckpointStore,
    target: &mut M,
    telemetry: &Telemetry,
) -> RecoveryReport {
    let generations = store.generations().unwrap_or_default();
    let mut stats = RecoveryStats::default();
    for (depth, path) in generations.iter().enumerate() {
        let restored = store
            .read(path)
            .map_err(|e| TwigError::Io {
                detail: e.to_string(),
            })
            .and_then(|bytes| target.restore_checkpoint(&bytes));
        match restored {
            Ok(()) => {
                stats.bump(telemetry, |s| &mut s.loads);
                return RecoveryReport {
                    outcome: RecoveryOutcome::Restored { generation: depth },
                    ladder_depth: depth,
                    stats,
                };
            }
            Err(_) => stats.bump(telemetry, |s| &mut s.corrupt),
        }
    }
    stats.bump(telemetry, |s| &mut s.cold_starts);
    RecoveryReport {
        outcome: RecoveryOutcome::ColdStart,
        ladder_depth: generations.len(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str, keep: usize) -> ScratchStore {
        ScratchStore::create(&format!("ckpt-store-{tag}"), keep).unwrap()
    }

    /// Minimal checkpointable: a byte payload with a trivial validity rule
    /// (payload must start with 0xAB).
    struct Fake {
        state: Vec<u8>,
    }

    impl Checkpointable for Fake {
        fn checkpoint_bytes(&self) -> Result<Vec<u8>, TwigError> {
            Ok(self.state.clone())
        }

        fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), TwigError> {
            if bytes.first() != Some(&0xAB) {
                return Err(TwigError::InvalidConfig {
                    detail: "bad payload".into(),
                });
            }
            self.state = bytes.to_vec();
            Ok(())
        }
    }

    #[test]
    fn write_rotates_generations() {
        let store = temp_store("rotate", 2);
        for i in 0..5u8 {
            store.write(&[0xAB, i]).unwrap();
        }
        let gens = store.generations().unwrap();
        assert_eq!(gens.len(), 2, "only `keep` generations survive");
        // Newest first: sequence 4 then 3.
        assert_eq!(store.read(&gens[0]).unwrap(), vec![0xAB, 4]);
        assert_eq!(store.read(&gens[1]).unwrap(), vec![0xAB, 3]);
        assert!(
            !store.dir().join(TMP_NAME).exists(),
            "no temp file left behind"
        );
    }

    #[test]
    fn zero_keep_rejected() {
        let dir = std::env::temp_dir().join("twig-ckpt-zero-keep");
        assert!(CheckpointStore::create(&dir, 0).is_err());
    }

    #[test]
    fn recover_prefers_newest_generation() {
        let store = temp_store("newest", 3);
        store.write(&[0xAB, 1]).unwrap();
        store.write(&[0xAB, 2]).unwrap();
        let telemetry = Telemetry::enabled();
        let mut target = Fake { state: vec![] };
        let report = recover(&store, &mut target, &telemetry);
        assert_eq!(report.outcome, RecoveryOutcome::Restored { generation: 0 });
        assert_eq!(report.ladder_depth, 0);
        assert_eq!(target.state, vec![0xAB, 2]);
        assert_eq!(telemetry.counter("ckpt.load"), 1);
        assert_eq!(telemetry.counter("ckpt.corrupt"), 0);
    }

    #[test]
    fn recover_falls_back_past_corrupt_generation() {
        let store = temp_store("fallback", 3);
        store.write(&[0xAB, 1]).unwrap();
        let newest = store.write(&[0xAB, 2]).unwrap();
        // Corrupt the newest generation on disk.
        fs::write(&newest, [0xFF, 0xFF]).unwrap();
        let telemetry = Telemetry::enabled();
        let mut target = Fake { state: vec![] };
        let report = recover(&store, &mut target, &telemetry);
        assert_eq!(report.outcome, RecoveryOutcome::Restored { generation: 1 });
        assert_eq!(report.ladder_depth, 1);
        assert_eq!(report.stats.corrupt, 1);
        assert_eq!(target.state, vec![0xAB, 1]);
        assert_eq!(telemetry.counter("ckpt.corrupt"), 1);
        assert_eq!(telemetry.counter("ckpt.load"), 1);
    }

    #[test]
    fn recover_cold_starts_when_everything_corrupt() {
        let store = temp_store("cold", 2);
        for gen in store.generations().unwrap() {
            let _ = fs::remove_file(gen);
        }
        store.write(&[0xAB, 1]).unwrap();
        store.write(&[0xAB, 2]).unwrap();
        for gen in store.generations().unwrap() {
            fs::write(&gen, [0x00]).unwrap();
        }
        let telemetry = Telemetry::enabled();
        let mut target = Fake { state: vec![9] };
        let report = recover(&store, &mut target, &telemetry);
        assert_eq!(report.outcome, RecoveryOutcome::ColdStart);
        assert!(!report.recovered());
        assert_eq!(report.ladder_depth, 2);
        assert_eq!(target.state, vec![9], "cold start leaves state untouched");
        let rungs = RecoveryStats {
            loads: 0,
            corrupt: 2,
            cold_starts: 1,
        };
        assert_eq!(report.stats, rungs);
        assert_eq!(telemetry.counter("ckpt.cold_start"), 1);
        assert_eq!(telemetry.counter("ckpt.corrupt"), 2);
    }

    #[test]
    fn recover_empty_store_is_cold_start() {
        // A brand-new (empty) directory is a normal cold start, not an
        // error: zero generations, zero corruption, and the store is
        // immediately writable afterwards.
        let store = temp_store("empty", 2);
        assert!(store.generations().unwrap().is_empty());
        let telemetry = Telemetry::disabled();
        let mut target = Fake { state: vec![] };
        let report = recover(&store, &mut target, &telemetry);
        assert_eq!(report.outcome, RecoveryOutcome::ColdStart);
        assert_eq!(report.ladder_depth, 0);
        assert_eq!(report.stats.corrupt, 0);
        assert!(target.state.is_empty(), "cold start leaves state untouched");
        store.write(&[0xAB, 1]).unwrap();
        assert_eq!(store.generations().unwrap().len(), 1);
    }

    #[test]
    fn lone_orphan_tmp_is_ignored_and_reclaimed() {
        // A crash between temp-file creation and rename leaves `ckpt.tmp`
        // as the only entry. It must never be treated as a generation, and
        // both open and the next write's prune must sweep it.
        let store = temp_store("orphan", 2);
        fs::write(store.dir().join(TMP_NAME), [0xAB, 7]).unwrap();
        assert!(
            store.generations().unwrap().is_empty(),
            "orphan temp file is not a generation"
        );
        let telemetry = Telemetry::enabled();
        let mut target = Fake { state: vec![] };
        let report = recover(&store, &mut target, &telemetry);
        assert_eq!(report.outcome, RecoveryOutcome::ColdStart);
        assert_eq!(report.stats.corrupt, 0, "orphan never hit the ladder");
        // Re-opening the same directory reclaims the orphan...
        let reopened = CheckpointStore::create(store.dir(), 2).unwrap();
        assert!(!reopened.dir().join(TMP_NAME).exists());
        // ...and so does a write's prune pass if one reappears.
        fs::write(store.dir().join(TMP_NAME), [0xAB, 8]).unwrap();
        store.write(&[0xAB, 9]).unwrap();
        assert!(!store.dir().join(TMP_NAME).exists());
        let gens = store.generations().unwrap();
        assert_eq!(gens.len(), 1);
        assert_eq!(store.read(&gens[0]).unwrap(), vec![0xAB, 9]);
    }

    #[test]
    fn sequence_counter_saturates_at_the_end_of_time() {
        // Plant a generation at u64::MAX: the next write must saturate and
        // overwrite that newest generation rather than wrap to 0 (which
        // would sort as the oldest and get pruned immediately).
        let store = temp_store("wrap", 2);
        let max_name = format!("{CKPT_PREFIX}{:08}{CKPT_SUFFIX}", u64::MAX);
        fs::write(store.dir().join(&max_name), [0xAB, 1]).unwrap();
        store.write(&[0xAB, 2]).unwrap();
        let gens = store.generations().unwrap();
        assert_eq!(gens.len(), 1, "saturated write lands on the same name");
        assert_eq!(gens[0], store.dir().join(&max_name));
        assert_eq!(
            store.read(&gens[0]).unwrap(),
            vec![0xAB, 2],
            "newest payload wins"
        );
        // Recovery still restores the newest payload afterwards.
        let telemetry = Telemetry::disabled();
        let mut target = Fake { state: vec![] };
        let report = recover(&store, &mut target, &telemetry);
        assert_eq!(report.outcome, RecoveryOutcome::Restored { generation: 0 });
        assert_eq!(target.state, vec![0xAB, 2]);
    }

    #[test]
    fn scratch_store_leaves_nothing_after_an_early_return() {
        // A run that fails through `?` halfway, after writing a generation.
        fn failing_run(dir: &mut PathBuf) -> io::Result<()> {
            let store = ScratchStore::create("ckpt-store-early-return", 2)?;
            *dir = store.dir().to_path_buf();
            store.write(&[0xAB, 1])?;
            store.read(&store.dir().join("ckpt-missing.bin"))?;
            Ok(())
        }
        let mut dir = PathBuf::new();
        assert!(failing_run(&mut dir).is_err());
        assert!(dir.starts_with(std::env::temp_dir()));
        assert!(!dir.exists(), "{} left behind", dir.display());

        let (a, b) = (temp_store("twin", 1), temp_store("twin", 1));
        assert_ne!(
            a.dir(),
            b.dir(),
            "two live scratch stores share a directory"
        );
    }
}
