//! Saving and loading workload suites and request streams as JSON.
//!
//! Suites persist their full operating-point tables; request *streams*
//! persist only `(application name, arrival, deadline)` triples — the
//! trace-replay format. [`load_stream`] resolves application names
//! against a characterized library, so a recorded stream replays
//! deterministically through `amrm_sim::Simulation` on any machine that
//! can rebuild the same library.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use amrm_model::AppRef;
use serde::{Deserialize, Serialize};

use crate::{ScenarioRequest, TestCase};

/// Saves a suite to a JSON file.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn save_suite(path: impl AsRef<Path>, cases: &[TestCase]) -> std::io::Result<()> {
    let file = File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), cases).map_err(std::io::Error::other)
}

/// Loads a suite from a JSON file written by [`save_suite`].
///
/// # Errors
///
/// Returns any I/O or deserialization error.
pub fn load_suite(path: impl AsRef<Path>) -> std::io::Result<Vec<TestCase>> {
    let file = File::open(path)?;
    serde_json::from_reader(BufReader::new(file)).map_err(std::io::Error::other)
}

/// One persisted request of a trace: the application *by name* plus the
/// arrival/deadline instants.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StreamRecord {
    app: String,
    arrival: f64,
    deadline: f64,
}

/// Saves a request stream as a JSON trace of
/// `(application name, arrival, deadline)` records.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn save_stream(path: impl AsRef<Path>, stream: &[ScenarioRequest]) -> std::io::Result<()> {
    let records: Vec<StreamRecord> = stream
        .iter()
        .map(|r| StreamRecord {
            app: r.app.name().to_string(),
            arrival: r.arrival,
            deadline: r.deadline,
        })
        .collect();
    let file = File::create(path)?;
    serde_json::to_writer(BufWriter::new(file), &records).map_err(std::io::Error::other)
}

/// Loads a request stream written by [`save_stream`], resolving each
/// record's application name against `library`.
///
/// # Errors
///
/// Returns any I/O error, or an
/// [`InvalidData`](std::io::ErrorKind::InvalidData) error for a file that
/// is not a JSON array of records, naming the first record whose
/// application the library does not contain, whose times are not finite,
/// or whose deadline precedes its arrival.
pub fn load_stream(
    path: impl AsRef<Path>,
    library: &[AppRef],
) -> std::io::Result<Vec<ScenarioRequest>> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let file = File::open(path)?;
    let records: Vec<StreamRecord> = serde_json::from_reader(BufReader::new(file))
        .map_err(|e| invalid(format!("malformed stream file: {e}")))?;
    records
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let app = library.iter().find(|a| a.name() == r.app).ok_or_else(|| {
                invalid(format!(
                    "record {i}: application `{}` not in the provided library",
                    r.app
                ))
            })?;
            if !(r.arrival.is_finite() && r.deadline.is_finite() && r.deadline >= r.arrival) {
                return Err(invalid(format!(
                    "record {i}: arrival {} and deadline {} must be finite and ordered",
                    r.arrival, r.deadline
                )));
            }
            Ok(ScenarioRequest {
                app: AppRef::clone(app),
                arrival: r.arrival,
                deadline: r.deadline,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_suite, scenarios, SuiteSpec};

    #[test]
    fn roundtrip_through_file() {
        let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
        let spec = SuiteSpec {
            weak_counts: [2, 2, 0, 0],
            tight_counts: [1, 1, 1, 0],
            ..SuiteSpec::default()
        };
        let suite = generate_suite(&lib, &spec, 5);
        let path = std::env::temp_dir().join("amrm_suite_roundtrip.json");
        save_suite(&path, &suite).unwrap();
        let back = load_suite(&path).unwrap();
        assert_eq!(back.len(), suite.len());
        for (a, b) in suite.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.num_jobs(), b.num_jobs());
            assert_eq!(a.jobs[0].app.name(), b.jobs[0].app.name());
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_suite("/nonexistent/amrm.json").is_err());
        assert!(load_stream("/nonexistent/amrm.json", &[scenarios::lambda1()]).is_err());
    }

    #[test]
    fn stream_roundtrips_exactly() {
        let lib = vec![scenarios::lambda1(), scenarios::lambda2()];
        let spec = crate::StreamSpec {
            requests: 25,
            slack_range: (1.2, 2.8),
        };
        let stream = crate::poisson_stream(&lib, 3.0, &spec, 17);
        let path = std::env::temp_dir().join("amrm_stream_roundtrip.json");
        save_stream(&path, &stream).unwrap();
        let back = load_stream(&path, &lib).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.len(), stream.len());
        for (a, b) in stream.iter().zip(&back) {
            assert_eq!(a.app.name(), b.app.name());
            // Bit-exact floats: a replayed trace must drive the kernel
            // identically to the recorded run.
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
            assert_eq!(a.deadline.to_bits(), b.deadline.to_bits());
        }
    }

    #[test]
    fn loading_a_stream_with_unknown_app_names_the_culprit() {
        let stream = vec![crate::ScenarioRequest {
            app: scenarios::lambda2(),
            arrival: 0.0,
            deadline: 5.0,
        }];
        let path = std::env::temp_dir().join("amrm_stream_unknown_app.json");
        save_stream(&path, &stream).unwrap();
        // A library missing λ2 cannot resolve the record.
        let err = load_stream(&path, &[scenarios::lambda1()]).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("λ2"), "{err}");
    }

    #[test]
    fn loading_a_stream_with_impossible_times_names_the_record() {
        let lib = [scenarios::lambda1()];
        let path = std::env::temp_dir().join("amrm_stream_bad_times.json");
        for records in [
            r#"[{"app":"λ1","arrival":0.0,"deadline":2.0},{"app":"λ1","arrival":5.0,"deadline":1.0}]"#,
            r#"[{"app":"λ1","arrival":0.0,"deadline":2.0},{"app":"λ1","arrival":0.0,"deadline":1e999}]"#,
        ] {
            std::fs::write(&path, records).unwrap();
            let err = load_stream(&path, &lib).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("record 1"), "{err}");
        }
        std::fs::write(&path, r#"[{"app":"λ1","arrival":0.0"#).unwrap();
        let err = load_stream(&path, &lib).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }
}
