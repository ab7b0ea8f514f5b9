//! Persistence of the offline artifacts (§III: "the classification is
//! stored as part of the application binary"; §IV-C: "we instrument the
//! memory object classification information into application binaries").
//!
//! In the real system the classification travels inside the instrumented
//! binary; here it is a JSON sidecar file that a deployment would ship next
//! to the executable. Both the raw profile LUT (§IV-A) and the classified
//! result round-trip, so profiling machines and serving machines can be
//! different hosts.

use crate::classify::ClassifiedApp;
use crate::profile::ProfileLut;
use std::io::Write;
use std::path::Path;

/// Errors from artifact persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed artifact.
    Format(serde_json::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "artifact I/O error: {e}"),
            PersistError::Format(e) => write!(f, "artifact format error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

fn save<T: serde::Serialize>(value: &T, path: &Path) -> Result<(), PersistError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(serde_json::to_string_pretty(value)?.as_bytes())?;
    Ok(())
}

fn load<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, PersistError> {
    let body = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&body)?)
}

impl ProfileLut {
    /// Write the lookup table to `path` as JSON.
    pub fn save_json(&self, path: &Path) -> Result<(), PersistError> {
        save(self, path)
    }

    /// Read a lookup table back.
    pub fn load_json(path: &Path) -> Result<ProfileLut, PersistError> {
        load(path)
    }
}

impl ClassifiedApp {
    /// Write the classification (the binary-instrumentation payload) to
    /// `path` as JSON.
    pub fn save_json(&self, path: &Path) -> Result<(), PersistError> {
        save(self, path)
    }

    /// Read a classification back.
    pub fn load_json(path: &Path) -> Result<ClassifiedApp, PersistError> {
        load(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify_lut, AppThresholds, Thresholds};
    use crate::profile::{profile_app, ProfileConfig};
    use moca_workloads::{app_by_name, InputSet};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join("moca_persist_test").join(name)
    }

    #[test]
    fn profile_roundtrips() {
        let cfg = ProfileConfig {
            warmup_instrs: 30_000,
            measure_instrs: 40_000,
            ..ProfileConfig::quick()
        };
        let lut = profile_app(&app_by_name("gcc"), InputSet::training(), &cfg);
        let path = tmp("gcc.profile.json");
        lut.save_json(&path).unwrap();
        let back = ProfileLut::load_json(&path).unwrap();
        assert_eq!(back.app, lut.app);
        assert_eq!(back.objects.len(), lut.objects.len());
        for (a, b) in lut.objects.iter().zip(back.objects.iter()) {
            assert_eq!(a.llc_misses, b.llc_misses);
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn classification_roundtrips_and_matches() {
        let cfg = ProfileConfig {
            warmup_instrs: 30_000,
            measure_instrs: 40_000,
            ..ProfileConfig::quick()
        };
        let lut = profile_app(&app_by_name("lbm"), InputSet::training(), &cfg);
        let classified = classify_lut(&lut, Thresholds::default(), AppThresholds::default());
        let path = tmp("lbm.classes.json");
        classified.save_json(&path).unwrap();
        let back = ClassifiedApp::load_json(&path).unwrap();
        assert_eq!(back.object_classes, classified.object_classes);
        assert_eq!(back.app_class, classified.app_class);
    }

    #[test]
    fn load_missing_file_errors() {
        let err = ClassifiedApp::load_json(&tmp("nope.json")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn load_garbage_errors() {
        let path = tmp("garbage.json");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"not json").unwrap();
        let err = ProfileLut::load_json(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn deeply_nested_input_is_a_format_error() {
        // 100 000 `[` (100 KB) is deep enough to overflow the stack of a
        // recursive parser without a nesting limit.
        let path = tmp("deep.json");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "[".repeat(100_000)).unwrap();
        let err = ProfileLut::load_json(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
        let err = ClassifiedApp::load_json(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
    }

    #[test]
    fn truncated_sidecars_are_format_errors() {
        let cfg = ProfileConfig {
            warmup_instrs: 10_000,
            measure_instrs: 20_000,
            ..ProfileConfig::quick()
        };
        let lut = profile_app(&app_by_name("mcf"), InputSet::training(), &cfg);
        let classified = classify_lut(&lut, Thresholds::default(), AppThresholds::default());
        let lut_path = tmp("mcf.profile.json");
        let cls_path = tmp("mcf.classes.json");
        lut.save_json(&lut_path).unwrap();
        classified.save_json(&cls_path).unwrap();
        let cut_path = tmp("truncated.json");
        for (path, is_lut) in [(&lut_path, true), (&cls_path, false)] {
            let body = std::fs::read_to_string(path).unwrap();
            let n = body.len();
            for cut in [0, 1, n / 3, n / 2, n - 2, n - 1] {
                let cut = (0..=cut).rev().find(|&c| body.is_char_boundary(c)).unwrap();
                std::fs::write(&cut_path, &body[..cut]).unwrap();
                let err = if is_lut {
                    ProfileLut::load_json(&cut_path).map(|_| ()).unwrap_err()
                } else {
                    ClassifiedApp::load_json(&cut_path).map(|_| ()).unwrap_err()
                };
                assert!(
                    matches!(err, PersistError::Format(_)),
                    "{} cut at {cut} of {n}: {err}",
                    path.display()
                );
            }
        }
    }
}
