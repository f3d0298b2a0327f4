//! The persistent warm-start mapping cache behind EX-MEM's cross-
//! activation memo.
//!
//! Hybrid design-time/run-time mapping work (Weichslgartner et al.,
//! PAPERS.md) splits the expensive search off the critical path: mappings
//! proven at design time are *loaded* at run time instead of re-derived.
//! [`MappingCache`] is that split for this reproduction's exact path —
//! EX-MEM's memo table extracted into an owned, serializable store, so a
//! recorded workload (see `amrm_workload::{save_stream, load_stream}`)
//! can be replayed *warm*: the second run serves proofs from disk instead
//! of searching from scratch, and stays bit-identical in admissions and
//! energy because every served entry is an `Exact` optimum or an
//! `Infeasible` proof — never a truncation-tainted upper bound.
//!
//! # Persistence rules
//!
//! * **Proofs only.** [`MappingCache::save`] persists `Exact` and
//!   `Infeasible` entries; `Anytime` upper bounds and incumbent-relative
//!   `Bound`s are dropped (they are refinable artifacts of one run's
//!   budget, and replaying them could steer a warm run away from the cold
//!   run's trajectory).
//! * **Bit-exact floats.** Energies and deadlines are stored as raw IEEE
//!   bits (`f64::to_bits`), never as decimal text, so a save→load
//!   roundtrip cannot perturb a single ulp.
//! * **Content-based signatures.** Each referenced job carries a
//!   [`JobSig`]: application *name* plus an FNV-1a fingerprint over its
//!   operating-point table and the raw deadline bits. Pointer identity
//!   does not survive serialization, so a loaded cache revalidates
//!   against the *current* application library by content before any hit
//!   is served — a renamed app, an edited point table, or a changed
//!   deadline voids the table exactly like an in-process mismatch.
//! * **Deterministic files.** Entries and signatures are written in
//!   sorted key order, so the same cache state always produces the same
//!   bytes (hash-map iteration order never leaks into the file).
//!
//! # Examples
//!
//! ```
//! use amrm_baselines::{ExMem, MappingCache};
//! use amrm_core::Scheduler;
//! use amrm_workload::scenarios;
//!
//! let jobs = scenarios::s1_jobs_at_t1();
//! let platform = scenarios::platform();
//!
//! // Cold run: solve, then keep the proofs.
//! let mut cold = ExMem::new();
//! cold.schedule_at(&jobs, &platform, 1.0).unwrap();
//! let dir = std::env::temp_dir().join("amrm_cache_doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("s1.cache.json");
//! cold.cache().save(&path).unwrap();
//!
//! // Warm run: identical schedule, served from the loaded proofs.
//! let mut warm = ExMem::new().with_cache(MappingCache::load(&path).unwrap());
//! let schedule = warm.schedule_at(&jobs, &platform, 1.0).unwrap();
//! assert!(warm.last_warm_hits() > 0);
//! assert_eq!(schedule, cold.schedule_at(&jobs, &platform, 1.0).unwrap());
//! ```

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use amrm_model::{AppRef, Job};
use serde::value::get_field;
use serde::{Deserialize, Error, Serialize, Value};

/// Memo key: the quantized activation time followed by the quantized
/// `(JobId, remaining-ratio)` pairs in state order, flattened to
/// `[time_q, id0, rho0, id1, rho1, …]` so a search can look it up from a
/// reused buffer. Lexicographic order over the flat slice equals the
/// order over the nested `(time_q, [(id, rho)])` form, so saved files
/// list their entries in that order.
pub(crate) type Key = Box<[u64]>;

/// One memoized search result (see `exmem.rs` for how each class is
/// derived and consumed).
#[derive(Debug, Clone)]
pub(crate) enum MemoVal {
    /// Exact optimum from this state, with the optimal first-segment
    /// assignment (`None` = job suspended) in state order.
    Exact {
        energy: f64,
        choice: Vec<Option<usize>>,
    },
    /// A *feasible* completion with this energy exists via this choice —
    /// found under a truncated (budgeted or rank-capped) search, so it is
    /// an upper bound, not a proven optimum.
    Anytime {
        energy: f64,
        choice: Vec<Option<usize>>,
    },
    /// The optimum from this state is ≥ this bound (an exhaustive search
    /// with that incumbent found nothing better).
    Bound { at_least: f64 },
    /// No feasible completion exists at all.
    Infeasible,
}

/// What a job's memoized states were derived under; any change voids the
/// whole table. The signature is *content-based* — application name, an
/// FNV-1a fingerprint of the operating-point table, and the raw deadline
/// bits — so it survives serialization and revalidates a loaded cache
/// against the current application library (raw pointers would neither
/// survive the roundtrip nor be safe to compare across processes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobSig {
    pub(crate) app_name: String,
    pub(crate) points_fp: u64,
    pub(crate) deadline_bits: u64,
}

impl JobSig {
    pub(crate) fn of(job: &Job) -> Self {
        JobSig {
            app_name: job.app().name().to_string(),
            points_fp: points_fingerprint(job.app()),
            deadline_bits: job.deadline().to_bits(),
        }
    }

    pub(crate) fn matches(&self, job: &Job) -> bool {
        self.deadline_bits == job.deadline().to_bits()
            && self.app_name == job.app().name()
            && self.points_fp == points_fingerprint(job.app())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a fingerprint of an application's operating-point table: for each
/// point, the resource counts followed by the raw time and energy bits.
/// Everything EX-MEM's memoized values depend on per job (beyond the
/// deadline) is a function of this table, so two applications with equal
/// fingerprints are interchangeable for memo validity.
pub(crate) fn points_fingerprint(app: &AppRef) -> u64 {
    let mut hash = fnv_u64(FNV_OFFSET, app.num_points() as u64);
    for point in app.points() {
        hash = fnv_u64(hash, point.resources().num_types() as u64);
        for count in point.resources().iter() {
            hash = fnv_u64(hash, u64::from(count));
        }
        hash = fnv_u64(hash, point.time().to_bits());
        hash = fnv_u64(hash, point.energy().to_bits());
    }
    hash
}

/// Cache file format version (bumped on incompatible layout changes; a
/// mismatch is an error, never a silent reinterpretation).
const CACHE_VERSION: u64 = 1;
/// `choice` slot encoding for a suspended job (`None`).
const SUSPENDED: i64 = -1;

/// EX-MEM's cross-activation memo as an owned, serializable store: the
/// memoized search results, the per-job validity signatures guarding
/// them, and the set of keys that were loaded from disk (for warm-start
/// accounting).
///
/// Constructed empty by [`ExMem::new`](crate::ExMem::new), loaded from a
/// recorded file with [`MappingCache::load`] +
/// [`ExMem::with_cache`](crate::ExMem::with_cache), and saved after a run
/// with [`MappingCache::save`] via
/// [`ExMem::cache`](crate::ExMem::cache).
#[derive(Debug, Clone, Default)]
pub struct MappingCache {
    pub(crate) memo: HashMap<Key, MemoVal>,
    pub(crate) signatures: HashMap<u64, JobSig>,
    /// Keys that came from disk: a conclusive hit on one counts as a
    /// `cache_warm_hit` in the activation aggregate.
    pub(crate) warm: HashSet<Key>,
}

impl MappingCache {
    /// An empty cache (what a cold [`ExMem`](crate::ExMem) starts with).
    pub fn new() -> Self {
        MappingCache::default()
    }

    /// Memoized states currently held (all classes, not just proofs).
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Returns `true` when no states are held.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// States that would survive [`save`](MappingCache::save): the
    /// `Exact` optima and `Infeasible` proofs.
    pub fn proof_count(&self) -> usize {
        self.memo
            .values()
            .filter(|v| matches!(v, MemoVal::Exact { .. } | MemoVal::Infeasible))
            .count()
    }

    /// States loaded from disk and still resident.
    pub fn warm_len(&self) -> usize {
        self.warm.len()
    }

    pub(crate) fn clear(&mut self) {
        self.memo.clear();
        self.signatures.clear();
        self.warm.clear();
    }

    /// Writes the proofs (`Exact` + `Infeasible`) and their signatures as
    /// JSON, in sorted key order so equal cache states produce equal
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let file = File::create(path)?;
        serde_json::to_writer(BufWriter::new(file), self).map_err(std::io::Error::other)
    }

    /// Loads a cache written by [`save`](MappingCache::save). Every
    /// loaded key is marked *warm* so conclusive hits on it are counted
    /// as `cache_warm_hit`s.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, or `InvalidData` when the file
    /// is not a version-1 cache or an exact entry's `choice` does not
    /// have one slot per job of its `state`.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<MappingCache> {
        let file = File::open(path)?;
        serde_json::from_reader(BufReader::new(file))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

fn key_to_value(key: &[u64]) -> Value {
    Value::Obj(vec![
        ("time_q".into(), Value::UInt(key[0])),
        (
            "state".into(),
            Value::Arr(
                key[1..]
                    .chunks_exact(2)
                    .map(|pair| Value::Arr(vec![Value::UInt(pair[0]), Value::UInt(pair[1])]))
                    .collect(),
            ),
        ),
    ])
}

fn choice_to_value(choice: &[Option<usize>]) -> Value {
    Value::Arr(
        choice
            .iter()
            .map(|slot| match slot {
                Some(cfg) => Value::UInt(*cfg as u64),
                None => Value::Int(SUSPENDED),
            })
            .collect(),
    )
}

fn key_from_fields(fields: &[(String, Value)]) -> Result<Key, Error> {
    let mut key = vec![u64::from_value(get_field(fields, "time_q")?)?];
    for pair in get_field(fields, "state")?
        .as_arr()
        .ok_or_else(|| Error::new("cache entry `state` must be an array"))?
    {
        match pair.as_arr() {
            Some([id, rho_q]) => key.extend([u64::from_value(id)?, u64::from_value(rho_q)?]),
            _ => return Err(Error::new("cache state element must be a [job, rho] pair")),
        }
    }
    Ok(key.into_boxed_slice())
}

fn choice_from_value(v: &Value) -> Result<Vec<Option<usize>>, Error> {
    v.as_arr()
        .ok_or_else(|| Error::new("cache entry `choice` must be an array"))?
        .iter()
        .map(|slot| match slot {
            Value::Int(SUSPENDED) => Ok(None),
            other => usize::from_value(other).map(Some),
        })
        .collect()
}

impl Serialize for MappingCache {
    fn to_value(&self) -> Value {
        let mut signatures: Vec<(&u64, &JobSig)> = self.signatures.iter().collect();
        signatures.sort_by_key(|(id, _)| **id);
        let signatures = signatures
            .into_iter()
            .map(|(id, sig)| {
                Value::Obj(vec![
                    ("job".into(), Value::UInt(*id)),
                    ("app".into(), Value::Str(sig.app_name.clone())),
                    ("points_fp".into(), Value::UInt(sig.points_fp)),
                    ("deadline_bits".into(), Value::UInt(sig.deadline_bits)),
                ])
            })
            .collect();

        let mut proofs: Vec<(&Key, &MemoVal)> = self
            .memo
            .iter()
            .filter(|(_, v)| matches!(v, MemoVal::Exact { .. } | MemoVal::Infeasible))
            .collect();
        proofs.sort_by_key(|(key, _)| *key);
        let entries = proofs
            .into_iter()
            .map(|(key, val)| {
                let mut fields = match key_to_value(key) {
                    Value::Obj(fields) => fields,
                    _ => unreachable!("key_to_value builds an object"),
                };
                match val {
                    MemoVal::Exact { energy, choice } => {
                        fields.push(("kind".into(), Value::Str("exact".into())));
                        fields.push(("energy_bits".into(), Value::UInt(energy.to_bits())));
                        fields.push(("choice".into(), choice_to_value(choice)));
                    }
                    MemoVal::Infeasible => {
                        fields.push(("kind".into(), Value::Str("infeasible".into())));
                    }
                    _ => unreachable!("only proofs are persisted"),
                }
                Value::Obj(fields)
            })
            .collect();

        Value::Obj(vec![
            ("version".into(), Value::UInt(CACHE_VERSION)),
            ("signatures".into(), Value::Arr(signatures)),
            ("entries".into(), Value::Arr(entries)),
        ])
    }
}

impl Deserialize for MappingCache {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = v
            .as_obj()
            .ok_or_else(|| Error::new("mapping cache must be an object"))?;
        let version = u64::from_value(get_field(fields, "version")?)?;
        if version != CACHE_VERSION {
            return Err(Error::new(format!(
                "unsupported mapping-cache version {version} (expected {CACHE_VERSION})"
            )));
        }

        let mut signatures = HashMap::new();
        for sig in get_field(fields, "signatures")?
            .as_arr()
            .ok_or_else(|| Error::new("cache `signatures` must be an array"))?
        {
            let sig = sig
                .as_obj()
                .ok_or_else(|| Error::new("cache signature must be an object"))?;
            let id = u64::from_value(get_field(sig, "job")?)?;
            signatures.insert(
                id,
                JobSig {
                    app_name: get_field(sig, "app")?
                        .as_str()
                        .ok_or_else(|| Error::new("signature `app` must be a string"))?
                        .to_string(),
                    points_fp: u64::from_value(get_field(sig, "points_fp")?)?,
                    deadline_bits: u64::from_value(get_field(sig, "deadline_bits")?)?,
                },
            );
        }

        let mut memo = HashMap::new();
        let mut warm = HashSet::new();
        for entry in get_field(fields, "entries")?
            .as_arr()
            .ok_or_else(|| Error::new("cache `entries` must be an array"))?
        {
            let entry = entry
                .as_obj()
                .ok_or_else(|| Error::new("cache entry must be an object"))?;
            let key = key_from_fields(entry)?;
            let kind = get_field(entry, "kind")?
                .as_str()
                .ok_or_else(|| Error::new("cache entry `kind` must be a string"))?;
            let val = match kind {
                "exact" => {
                    let choice = choice_from_value(get_field(entry, "choice")?)?;
                    if choice.len() != key.len() / 2 {
                        return Err(Error::new(format!(
                            "cache entry `choice` has {} slots for {} jobs in its `state`",
                            choice.len(),
                            key.len() / 2
                        )));
                    }
                    MemoVal::Exact {
                        energy: f64::from_bits(u64::from_value(get_field(entry, "energy_bits")?)?),
                        choice,
                    }
                }
                "infeasible" => MemoVal::Infeasible,
                other => {
                    return Err(Error::new(format!(
                        "unknown cache entry kind `{other}` (proofs are `exact`/`infeasible`)"
                    )))
                }
            };
            warm.insert(key.clone());
            memo.insert(key, val);
        }

        Ok(MappingCache {
            memo,
            signatures,
            warm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrm_model::{Application, JobId, OperatingPoint};
    use amrm_platform::ResourceVec;

    fn app(name: &str, energy: f64) -> AppRef {
        Application::shared(
            name,
            vec![OperatingPoint::new(
                ResourceVec::from_slice(&[1, 0]),
                2.0,
                energy,
            )],
        )
    }

    fn key(flat: &[u64]) -> Key {
        flat.into()
    }

    fn sample_cache() -> MappingCache {
        let mut cache = MappingCache::new();
        let job = Job::new(JobId(7), app("alpha", 3.5), 0.0, 9.25, 1.0);
        cache.signatures.insert(7, JobSig::of(&job));
        cache.memo.insert(
            key(&[100, 7, 500_000_000, 8, 250_000_000]),
            MemoVal::Exact {
                energy: 1.75,
                choice: vec![Some(0), None],
            },
        );
        cache
            .memo
            .insert(key(&[200, 7, 1_000_000_000]), MemoVal::Infeasible);
        cache.memo.insert(
            key(&[300, 7, 250_000_000]),
            MemoVal::Bound { at_least: 4.0 },
        );
        cache.memo.insert(
            key(&[400, 7, 125_000_000]),
            MemoVal::Anytime {
                energy: 2.5,
                choice: vec![Some(0)],
            },
        );
        cache
    }

    #[test]
    fn roundtrip_keeps_proofs_and_drops_refinables() {
        let cache = sample_cache();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.proof_count(), 2);
        let back = MappingCache::from_value(&cache.to_value()).expect("roundtrip must deserialize");
        assert_eq!(back.len(), 2, "only proofs are persisted");
        assert_eq!(back.warm_len(), 2, "loaded keys are all warm");
        match back.memo.get(&key(&[100, 7, 500_000_000, 8, 250_000_000])) {
            Some(MemoVal::Exact { energy, choice }) => {
                assert_eq!(energy.to_bits(), 1.75f64.to_bits());
                assert_eq!(choice, &vec![Some(0), None]);
            }
            other => panic!("expected exact entry, got {other:?}"),
        }
        assert!(matches!(
            back.memo.get(&key(&[200, 7, 1_000_000_000])),
            Some(MemoVal::Infeasible)
        ));
        assert_eq!(back.signatures, cache.signatures);
    }

    #[test]
    fn serialized_bytes_are_deterministic() {
        let cache = sample_cache();
        let a = serde_json::to_string(&cache).unwrap();
        let b = serde_json::to_string(&cache.clone()).unwrap();
        assert_eq!(a, b);
        // Keys appear in sorted order regardless of hash-map order.
        let t100 = a.find("\"time_q\":100").unwrap();
        let t200 = a.find("\"time_q\":200").unwrap();
        assert!(t100 < t200);
    }

    #[test]
    fn save_load_roundtrips_through_a_file() {
        let cache = sample_cache();
        let dir = std::env::temp_dir().join("amrm_cache_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.cache.json");
        cache.save(&path).unwrap();
        let back = MappingCache::load(&path).unwrap();
        assert_eq!(back.len(), cache.proof_count());
        assert_eq!(back.signatures, cache.signatures);
    }

    #[test]
    fn version_mismatch_is_invalid_data() {
        let dir = std::env::temp_dir().join("amrm_cache_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_version.cache.json");
        std::fs::write(&path, r#"{"version":99,"signatures":[],"entries":[]}"#).unwrap();
        let err = MappingCache::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn signature_fingerprint_tracks_point_table_content() {
        let job_a = Job::new(JobId(1), app("alpha", 3.5), 0.0, 9.0, 1.0);
        let sig = JobSig::of(&job_a);
        // A *different allocation* with identical content still matches —
        // this is exactly what pointer identity could not provide across
        // a serialization boundary.
        let same_content = Job::new(JobId(1), app("alpha", 3.5), 0.0, 9.0, 1.0);
        assert!(sig.matches(&same_content));
        // Any content change voids the signature.
        let renamed = Job::new(JobId(1), app("beta", 3.5), 0.0, 9.0, 1.0);
        assert!(!sig.matches(&renamed));
        let retimed = Job::new(JobId(1), app("alpha", 3.75), 0.0, 9.0, 1.0);
        assert!(!sig.matches(&retimed));
        let moved_deadline = Job::new(JobId(1), app("alpha", 3.5), 0.0, 9.5, 1.0);
        assert!(!sig.matches(&moved_deadline));
    }
}
