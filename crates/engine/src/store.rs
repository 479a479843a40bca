//! Content-addressed persistent model + function store: warm starts.
//!
//! Every `ssr` invocation (and every `ssr serve` request) historically
//! recompiled the netlist and rebuilt every BDD from scratch.  This module
//! makes the model/arena lifecycle pluggable and persistable:
//!
//! * [`ModelStore`] — an on-disk store, content-addressed by an FNV-1a 64
//!   hash over the *semantic key* of each artifact.  Compiled models
//!   (exact `ssr-netlist-store/v1` blobs, keyed by the full
//!   `CoreConfig` — which includes the retention policy) and per-job BDD
//!   function images (`ssr-store/v1` blobs, keyed by config × order ×
//!   suite × part × kernel format version) live side by
//!   side in one directory.  Commits are atomic (write-tmp-then-rename),
//!   so concurrent campaigns sharing a store directory can never observe
//!   a torn entry.
//! * [`ModelSource`] — how a campaign acquires its compiled harnesses:
//!   [`Compile`] always builds cold (the historical behaviour);
//!   [`StoreBacked`] hydrates from a [`ModelStore`] and transparently
//!   falls back to a cold build — with a structured stderr warning — on
//!   miss, version mismatch, checksum failure or any other corruption.
//!   A fallback can therefore never change a verdict, only cost time.
//! * maintenance — [`ModelStore::entries`] / [`ModelStore::verify`] /
//!   [`ModelStore::gc`] back the `ssr store ls|verify|gc` subcommands;
//!   eviction is least-recently-used (modification time, refreshed on
//!   every hit, with a deterministic file-name tie-break).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use ssr_bdd::store::fnv1a64;
use ssr_bdd::{
    Bdd, BddManager, OrderPolicy, StoreBlob, KERNEL_FORMAT_VERSION, KERNEL_FORMAT_VERSION_V1,
    STORE_MAGIC, STORE_MAGIC_V1,
};
use ssr_cpu::CoreConfig;
use ssr_netlist::{Netlist, NetlistError};
use ssr_properties::CoreHarness;

/// The semantic identity of one job's persisted BDD functions.  Everything
/// that can change the functions' *meaning* is part of the key; execution
/// parameters that only change telemetry (threads, budgets, reorder) are
/// deliberately not.
#[derive(Debug, Clone)]
pub struct FunctionKey<'a> {
    /// The full core configuration (retention policy already applied).
    pub config: &'a CoreConfig,
    /// Variable-order preset the functions were built under.
    pub order: &'a OrderPolicy,
    /// Suite name (e.g. `ifr`).
    pub suite: &'a str,
    /// Job part (`suite` or `assertion N`).
    pub part: &'a str,
}

impl FunctionKey<'_> {
    /// The stable textual material the content address is hashed from.
    fn material(&self) -> String {
        format!(
            "fns|{:?}|{}|{}|{}|kernel{}",
            self.config,
            self.order.name(),
            self.suite,
            self.part,
            KERNEL_FORMAT_VERSION,
        )
    }
}

/// One entry of a [`ModelStore`] directory listing.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// File name within the store directory (`model-<hex16>.nls` or
    /// `fns-<hex16>.bdd`).
    pub file: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Last modification time (the LRU clock), when the filesystem
    /// reports one.
    pub modified: Option<SystemTime>,
    /// Store format version of a `.bdd` function image, read from its
    /// magic line (`2` for `ssr-store/v2`, `1` for legacy `ssr-store/v1`).
    /// `None` for model files and unreadable/garbled headers.
    pub format: Option<u32>,
}

/// Health of one store entry as classified by [`ModelStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobHealth {
    /// Parses and fully reconstructs in the current format.
    Ok,
    /// Fully reconstructs, but was written by an older store format —
    /// still a valid warm-start source; a future save under the current
    /// kernel rewrites it in the current format.
    Upgradeable {
        /// The legacy format version found in the blob's header.
        from: u32,
    },
    /// Fails header, version, checksum or structural validation; warm
    /// loads fall back to a cold build.
    Damaged(String),
}

impl BlobHealth {
    /// Whether this entry cannot serve warm starts at all.
    pub fn is_damaged(&self) -> bool {
        matches!(self, BlobHealth::Damaged(_))
    }
}

/// The outcome of a [`ModelStore::gc`] pass.
#[derive(Debug, Clone)]
pub struct GcOutcome {
    /// Entries evicted, oldest first.
    pub evicted: Vec<StoreEntry>,
    /// Bytes remaining in the store after eviction.
    pub kept_bytes: u64,
}

/// A content-addressed on-disk store for compiled models and BDD function
/// images.  See the module docs for the layout and key scheme.
#[derive(Debug)]
pub struct ModelStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ModelStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    /// Propagates the directory-creation failure.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ModelStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ModelStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of successful loads (models + function images) through this
    /// handle's lifetime.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of failed loads (absent, corrupt or version-mismatched
    /// entries) through this handle's lifetime.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn model_path(&self, config: &CoreConfig) -> PathBuf {
        let material = format!(
            "model|{config:?}|{}",
            ssr_netlist::store::NETLIST_STORE_MAGIC
        );
        self.dir
            .join(format!("model-{:016x}.nls", fnv1a64(material.as_bytes())))
    }

    fn functions_path(&self, key: &FunctionKey<'_>) -> PathBuf {
        self.dir.join(format!(
            "fns-{:016x}.bdd",
            fnv1a64(key.material().as_bytes())
        ))
    }

    /// The structured degradation warning: every load failure (other than
    /// simple absence) surfaces exactly one of these before the caller
    /// falls back to a cold build.
    fn warn(path: &Path, what: &dyn std::fmt::Display) {
        eprintln!(
            "warning: store: {}: {what}; falling back to cold build",
            path.display()
        );
    }

    /// Best-effort LRU touch: refreshes the entry's modification time so
    /// `gc` evicts by recency of *use*, not just of creation.
    fn touch(path: &Path) {
        if let Ok(file) = fs::OpenOptions::new().write(true).open(path) {
            let _ = file.set_modified(SystemTime::now());
        }
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Atomically commits `text` at `path` (write `.tmp`, then rename).
    fn commit(&self, path: &Path, text: &str) {
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let result = fs::write(&tmp, text).and_then(|()| fs::rename(&tmp, path));
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            eprintln!("warning: store: cannot commit {}: {e}", path.display());
        }
    }

    /// Loads the compiled model for `config`, if a valid entry exists.
    /// Absence is a silent miss; corruption warns and is a miss.
    pub fn load_model(&self, config: &CoreConfig) -> Option<Netlist> {
        let path = self.model_path(config);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    Self::warn(&path, &e);
                }
                self.record(false);
                return None;
            }
        };
        match ssr_netlist::store::parse(&text) {
            Ok(netlist) => {
                Self::touch(&path);
                self.record(true);
                Some(netlist)
            }
            Err(e) => {
                Self::warn(&path, &e);
                self.record(false);
                None
            }
        }
    }

    /// Persists the compiled model for `config`.
    pub fn save_model(&self, config: &CoreConfig, netlist: &Netlist) {
        let path = self.model_path(config);
        self.commit(&path, &ssr_netlist::store::dump(netlist));
    }

    /// Hydrates a job's persisted BDD functions into `m`, if a valid entry
    /// exists.  Returns the function handles in their dumped order.
    pub fn load_functions(&self, m: &mut BddManager, key: &FunctionKey<'_>) -> Option<Vec<Bdd>> {
        let path = self.functions_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    Self::warn(&path, &e);
                }
                self.record(false);
                return None;
            }
        };
        match m.load_functions(&StoreBlob::from_text(text)) {
            Ok(roots) => {
                Self::touch(&path);
                self.record(true);
                Some(roots)
            }
            Err(e) => {
                Self::warn(&path, &e);
                self.record(false);
                None
            }
        }
    }

    /// Persists a job's function image.
    pub fn save_functions(&self, m: &BddManager, key: &FunctionKey<'_>, roots: &[Bdd]) {
        let path = self.functions_path(key);
        self.commit(&path, m.dump_functions(roots).as_str());
    }

    /// Lists the store's entries, sorted by file name (stable for tests
    /// and scripting).  Non-store files (including in-flight `.tmp`
    /// commits) are ignored.
    ///
    /// # Errors
    /// Propagates directory-read failures.
    pub fn entries(&self) -> io::Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let file = entry.file_name().to_string_lossy().into_owned();
            let known = (file.starts_with("model-") && file.ends_with(".nls"))
                || (file.starts_with("fns-") && file.ends_with(".bdd"));
            if !known {
                continue;
            }
            let meta = entry.metadata()?;
            let format = if file.ends_with(".bdd") {
                blob_format_version(&entry.path())
            } else {
                None
            };
            entries.push(StoreEntry {
                file,
                bytes: meta.len(),
                modified: meta.modified().ok(),
                format,
            });
        }
        entries.sort_by(|a, b| a.file.cmp(&b.file));
        Ok(entries)
    }

    /// Verifies every entry end to end (header, version, checksum,
    /// structure) without mutating anything.  Returns `(entry, health)`
    /// pairs in listing order; legacy-format blobs that still reconstruct
    /// are reported [`BlobHealth::Upgradeable`], not damaged.
    ///
    /// # Errors
    /// Propagates directory-read failures (per-entry corruption is a
    /// *result*, not an error).
    pub fn verify(&self) -> io::Result<Vec<(StoreEntry, BlobHealth)>> {
        self.entries()?
            .into_iter()
            .map(|entry| {
                let path = self.dir.join(&entry.file);
                let health = match fs::read_to_string(&path) {
                    Err(e) => BlobHealth::Damaged(e.to_string()),
                    Ok(text) if entry.file.starts_with("model-") => {
                        match ssr_netlist::store::parse(&text) {
                            Ok(_) => BlobHealth::Ok,
                            Err(e) => BlobHealth::Damaged(e.to_string()),
                        }
                    }
                    Ok(text) => {
                        let blob = StoreBlob::from_text(text);
                        let legacy = blob
                            .format_version()
                            .filter(|&v| v != KERNEL_FORMAT_VERSION);
                        // Scratch manager: validation includes a full
                        // reconstruction, exactly what a warm job does.
                        match BddManager::new().load_functions(&blob) {
                            Ok(_) => match legacy {
                                Some(from) => BlobHealth::Upgradeable { from },
                                None => BlobHealth::Ok,
                            },
                            Err(e) => BlobHealth::Damaged(e.to_string()),
                        }
                    }
                };
                Ok((entry, health))
            })
            .collect()
    }

    /// Evicts least-recently-used entries until the store holds at most
    /// `max_bytes`.  Recency is the modification time (refreshed on every
    /// hit), with the file name as a deterministic tie-break.
    ///
    /// # Errors
    /// Propagates directory-read failures; individual unlink failures are
    /// warnings (the entry simply survives until the next pass).
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcOutcome> {
        let mut entries = self.entries()?;
        // Oldest first; unknown mtimes sort oldest so they evict first.
        entries.sort_by(|a, b| a.modified.cmp(&b.modified).then(a.file.cmp(&b.file)));
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut evicted = Vec::new();
        let mut survivors = entries.into_iter();
        while total > max_bytes {
            let Some(entry) = survivors.next() else { break };
            let path = self.dir.join(&entry.file);
            match fs::remove_file(&path) {
                Ok(()) => {
                    total -= entry.bytes;
                    evicted.push(entry);
                }
                Err(e) => eprintln!("warning: store: cannot evict {}: {e}", path.display()),
            }
        }
        Ok(GcOutcome {
            evicted,
            kept_bytes: total,
        })
    }
}

/// Classifies a `.bdd` blob's store format from its magic line without
/// reading the whole file: the longest recognised magic is 13 bytes
/// including the newline, so a 16-byte head suffices.  Purely syntactic —
/// `verify` does the full checksum/reconstruction pass.
fn blob_format_version(path: &std::path::Path) -> Option<u32> {
    use std::io::Read as _;
    let mut head = [0u8; 16];
    let mut file = fs::File::open(path).ok()?;
    let n = file.read(&mut head).ok()?;
    let head = std::str::from_utf8(&head[..n]).ok()?;
    match head.lines().next()? {
        m if m == STORE_MAGIC => Some(KERNEL_FORMAT_VERSION),
        m if m == STORE_MAGIC_V1 => Some(KERNEL_FORMAT_VERSION_V1),
        _ => None,
    }
}

/// How a campaign materialises compiled harnesses and per-job function
/// images.  `Sync` because sources are shared across worker threads.
pub trait ModelSource: Sync {
    /// Produces the compiled harness for `(config, order)` — from a store,
    /// a cold build, or anything else that satisfies the contract that the
    /// returned harness is *semantically identical* to a cold build.
    ///
    /// # Errors
    /// Returns the generation/compilation error (reported per job).
    fn materialise(
        &self,
        config: CoreConfig,
        order: OrderPolicy,
    ) -> Result<CoreHarness, NetlistError>;

    /// Hydrates the job's persisted functions into `m`, if available.
    /// The default (cold) source never has any.
    fn preload_functions(&self, _m: &mut BddManager, _key: &FunctionKey<'_>) -> Option<Vec<Bdd>> {
        None
    }

    /// Persists a cold job's function image for the next run.  The default
    /// (cold) source drops it.
    fn persist_functions(&self, _m: &BddManager, _key: &FunctionKey<'_>, _roots: &[Bdd]) {}
}

/// The always-cold source: generate and compile from scratch, persist
/// nothing.  The historical behaviour, and the fallback inside
/// [`StoreBacked`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Compile;

impl ModelSource for Compile {
    fn materialise(
        &self,
        config: CoreConfig,
        order: OrderPolicy,
    ) -> Result<CoreHarness, NetlistError> {
        CoreHarness::with_order(config, order)
    }
}

/// A store-backed source: hydrate from a [`ModelStore`] when possible,
/// fall back to [`Compile`] (and populate the store) otherwise.
#[derive(Debug, Clone)]
pub struct StoreBacked {
    store: Arc<ModelStore>,
}

impl StoreBacked {
    /// Wraps a shared store handle.
    pub fn new(store: Arc<ModelStore>) -> Self {
        StoreBacked { store }
    }

    /// The underlying store (for hit/miss counters and maintenance).
    pub fn store(&self) -> &ModelStore {
        &self.store
    }
}

impl ModelSource for StoreBacked {
    fn materialise(
        &self,
        config: CoreConfig,
        order: OrderPolicy,
    ) -> Result<CoreHarness, NetlistError> {
        if let Some(netlist) = self.store.load_model(&config) {
            match CoreHarness::from_netlist(config, order.clone(), Arc::new(netlist)) {
                Ok(harness) => return Ok(harness),
                // A stored netlist that parses but no longer compiles is
                // stale in a way `verify` can't see (e.g. a simulator
                // invariant tightened); degrade to a cold build.
                Err(e) => ModelStore::warn(&self.store.model_path(&config), &e),
            }
        }
        let harness = CoreHarness::with_order(config, order)?;
        self.store.save_model(&config, harness.netlist());
        Ok(harness)
    }

    fn preload_functions(&self, m: &mut BddManager, key: &FunctionKey<'_>) -> Option<Vec<Bdd>> {
        self.store.load_functions(m, key)
    }

    fn persist_functions(&self, m: &BddManager, key: &FunctionKey<'_>, roots: &[Bdd]) {
        self.store.save_functions(m, key, roots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ssr-store-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> CoreConfig {
        crate::job::NamedConfig::small().config
    }

    #[test]
    fn model_round_trip_hits_on_second_load() {
        let dir = scratch_dir("model");
        let store = ModelStore::open(&dir).expect("open");
        let config = small_config();
        assert!(store.load_model(&config).is_none());
        assert_eq!((store.hits(), store.misses()), (0, 1));

        let harness = CoreHarness::new(config).expect("generates");
        store.save_model(&config, harness.netlist());
        let loaded = store.load_model(&config).expect("hit");
        assert_eq!(&loaded, harness.netlist());
        assert_eq!((store.hits(), store.misses()), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_backed_source_survives_a_corrupt_model_entry() {
        let dir = scratch_dir("corrupt");
        let store = Arc::new(ModelStore::open(&dir).expect("open"));
        let config = small_config();
        let source = StoreBacked::new(Arc::clone(&store));
        let cold = source
            .materialise(config, OrderPolicy::Interleaved)
            .expect("cold build");

        // Flip a byte in the committed entry.
        let path = store.model_path(&config);
        let text = fs::read_to_string(&path).expect("committed");
        fs::write(&path, text.replace("reg:", "reg!")).expect("doctor");

        // The next materialise must fall back to a cold build with the
        // same netlist — never an error, never a different model.
        let warm = source
            .materialise(config, OrderPolicy::Interleaved)
            .expect("fallback");
        assert_eq!(warm.netlist(), cold.netlist());
        // And the fallback re-committed a valid entry (self-healing).
        assert!(store.load_model(&config).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn function_image_round_trips_through_the_store() {
        let dir = scratch_dir("fns");
        let store = ModelStore::open(&dir).expect("open");
        let config = small_config();
        let order = OrderPolicy::Interleaved;
        let key = FunctionKey {
            config: &config,
            order: &order,
            suite: "two",
            part: "suite",
        };

        let mut m = BddManager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let f = m.and(a, b);
        assert!(store.load_functions(&mut m, &key).is_none());
        store.save_functions(&m, &key, &[f]);

        let mut fresh = BddManager::new();
        let loaded = store.load_functions(&mut fresh, &key).expect("hit");
        assert_eq!(loaded.len(), 1);
        assert_eq!(fresh.size(loaded[0]), m.size(f));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_address_distinct_entries() {
        let dir = scratch_dir("keys");
        let store = ModelStore::open(&dir).expect("open");
        let config = small_config();
        let order = OrderPolicy::Interleaved;
        let key = |suite: &'static str| FunctionKey {
            config: &config,
            order: &order,
            suite,
            part: "suite",
        };
        assert_ne!(
            store.functions_path(&key("two")),
            store.functions_path(&key("ifr"))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_the_doctored_entry_only() {
        let dir = scratch_dir("verify");
        let store = ModelStore::open(&dir).expect("open");
        let config = small_config();
        let harness = CoreHarness::new(config).expect("generates");
        store.save_model(&config, harness.netlist());

        let mut m = BddManager::new();
        let a = m.new_var("a");
        let order = OrderPolicy::Interleaved;
        let key = FunctionKey {
            config: &config,
            order: &order,
            suite: "two",
            part: "suite",
        };
        store.save_functions(&m, &key, &[a]);

        let clean = store.verify().expect("listable");
        assert_eq!(clean.len(), 2);
        assert!(clean.iter().all(|(_, r)| *r == BlobHealth::Ok));
        // The listing reports the current format for function images and
        // no format for model files.
        for (entry, _) in &clean {
            if entry.file.starts_with("fns-") {
                assert_eq!(entry.format, Some(KERNEL_FORMAT_VERSION));
            } else {
                assert_eq!(entry.format, None);
            }
        }

        // Corrupt the function image.
        let fns = store.functions_path(&key);
        let text = fs::read_to_string(&fns).expect("committed");
        fs::write(&fns, &text[..text.len() - 8]).expect("truncate");
        let checked = store.verify().expect("listable");
        let bad: Vec<_> = checked.iter().filter(|(_, r)| r.is_damaged()).collect();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].0.file.starts_with("fns-"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_v1_entries_verify_as_upgradeable() {
        let dir = scratch_dir("legacy");
        let store = ModelStore::open(&dir).expect("open");
        // A hand-built `ssr-store/v1` blob for f = a ∧ b, as committed by
        // kernels before the complement-edge representation.
        let payload = "ssr-store/v1\nkernel 1\nvars 2\na\nb\nnodes 2\n1 0 1\n0 0 2\nroots 1\n3\n";
        let sealed = format!("{payload}checksum {:016x}\n", fnv1a64(payload.as_bytes()));
        fs::write(dir.join("fns-00000000000000aa.bdd"), sealed).expect("write");

        let entries = store.entries().expect("listable");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].format, Some(KERNEL_FORMAT_VERSION_V1));

        let checked = store.verify().expect("listable");
        assert_eq!(checked.len(), 1);
        assert_eq!(
            checked[0].1,
            BlobHealth::Upgradeable {
                from: KERNEL_FORMAT_VERSION_V1
            },
            "a loadable v1 blob is upgradeable, not damaged"
        );
        assert!(!checked[0].1.is_damaged());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Re-seals a store blob after doctoring its payload, so only
    /// the targeted defect (not the checksum) can trip the loader.
    fn reseal(text: &str) -> String {
        let body = text.strip_suffix('\n').unwrap_or(text);
        let trailer_at = body.rfind('\n').expect("blob has a trailer") + 1;
        let payload = &text[..trailer_at];
        format!("{payload}checksum {:016x}\n", fnv1a64(payload.as_bytes()))
    }

    #[test]
    fn every_corruption_mode_degrades_to_the_cold_verdict() {
        let dir = scratch_dir("robust");
        let spec = crate::campaign::CampaignSpec {
            configs: vec![crate::job::NamedConfig::small()],
            policies: vec![
                crate::job::policy_by_name("architectural").expect("named"),
                crate::job::policy_by_name("none").expect("named"),
            ],
            suites: vec![ssr_properties::Suite::PropertyTwo],
            granularity: crate::job::Granularity::Suite,
            order: OrderPolicy::Interleaved,
            partitioning: ssr_properties::Partitioning::default(),
            reorder: None,
            threads: 1,
            budget: crate::job::JobBudget::default(),
            verbose: false,
        };
        let baseline = spec.run();

        let store = Arc::new(ModelStore::open(&dir).expect("open"));
        let warm = |store: &Arc<ModelStore>| {
            let source = StoreBacked::new(Arc::clone(store));
            let hooks = crate::campaign::RunHooks {
                source: Some(&source),
                ..crate::campaign::RunHooks::default()
            };
            spec.run_with_hooks(&[], None, None, hooks)
        };

        // Prime: all cold (misses), then a clean warm run (all hits).
        let primed = warm(&store);
        assert_eq!(primed.canonical_json(), baseline.canonical_json());
        assert_eq!(primed.store_misses(), primed.jobs.len() as u64);
        let clean = warm(&store);
        assert_eq!(clean.canonical_json(), baseline.canonical_json());
        assert_eq!(clean.store_hits(), clean.jobs.len() as u64);

        // Each corruption mode in turn: doctor every function image, then
        // assert the run falls back cold (per-job misses, no hits) with a
        // verdict byte-identical to the storeless baseline.  The fallback
        // re-commits valid entries, so each round starts from a warm store.
        type Doctor = fn(&str) -> String;
        let truncate: Doctor = |text| text[..text.len() - 9].to_string();
        let flip: Doctor = |text| text.replacen("nodes", "nodse", 1);
        let stale: Doctor = |text| {
            reseal(&text.replacen(
                &format!("kernel {KERNEL_FORMAT_VERSION}\n"),
                "kernel 99\n",
                1,
            ))
        };
        for (mode, doctor) in [("truncated", truncate), ("flipped", flip), ("stale", stale)] {
            for entry in store.entries().expect("listable") {
                if !entry.file.starts_with("fns-") {
                    continue;
                }
                let path = dir.join(&entry.file);
                let text = fs::read_to_string(&path).expect("committed");
                fs::write(&path, doctor(&text)).expect("doctor");
            }
            let degraded = warm(&store);
            assert_eq!(
                degraded.canonical_json(),
                baseline.canonical_json(),
                "{mode}: fallback must reproduce the cold verdict"
            );
            assert_eq!(degraded.store_hits(), 0, "{mode}: no doctored entry loads");
            assert_eq!(
                degraded.store_misses(),
                degraded.jobs.len() as u64,
                "{mode}: every job fell back"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_first_until_under_budget() {
        let dir = scratch_dir("gc");
        let store = ModelStore::open(&dir).expect("open");
        // Three fake entries with controlled sizes and mtimes.
        let mk = |name: &str, bytes: usize, age_s: u64| {
            let path = dir.join(name);
            fs::write(&path, "x".repeat(bytes)).expect("write");
            let when = SystemTime::now() - std::time::Duration::from_secs(age_s);
            fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("open")
                .set_modified(when)
                .expect("mtime");
        };
        mk("fns-000000000000000a.bdd", 100, 300);
        mk("fns-000000000000000b.bdd", 100, 200);
        mk("fns-000000000000000c.bdd", 100, 100);

        let outcome = store.gc(150).expect("gc");
        assert_eq!(outcome.kept_bytes, 100);
        let evicted: Vec<&str> = outcome.evicted.iter().map(|e| e.file.as_str()).collect();
        assert_eq!(
            evicted,
            ["fns-000000000000000a.bdd", "fns-000000000000000b.bdd"]
        );
        assert_eq!(store.entries().expect("listable").len(), 1);
        // A no-op pass evicts nothing.
        assert!(store.gc(150).expect("gc").evicted.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
