//! `amrm-lint` — a tidy-style determinism lint for the AMRM workspace.
//!
//! Every gate in this reproduction rests on bit-identical determinism:
//! same-seed equality across thread counts (`repro tune`), across
//! federation reruns and across journal on/off (the tracing layer). Those
//! invariants are enforced dynamically by proptests — which can only
//! catch a nondeterminism source after it ships. This crate checks the
//! conventions *statically*, rust-tidy style: a line/token scan over the
//! workspace with ~10 stable-coded rules (see [`rules`]), a committed
//! [`lint.allow`](allow) file for justified exceptions (each entry needs
//! a reason and is itself checked for staleness), and a JSON report that
//! embeds in CI.
//!
//! Run it as `repro lint [--json FILE]`; the process exits non-zero on
//! any violation. The debug-assertions runtime layer
//! (`amrm_metrics::invariant`) checks the same invariants dynamically —
//! the static pass and the dynamic checks name the same conventions.

use std::path::Path;

pub mod allow;
pub mod report;
pub mod rules;
pub mod scan;

pub use report::{LintReport, RuleCount, Suppression, Violation};

/// Runs the full lint pass over the workspace rooted at `root`:
/// collects sources, applies every registered rule, folds in the
/// `lint.allow` exceptions and reports stale entries as `AMRM-L008`.
///
/// # Errors
///
/// Returns a message for I/O failures or a malformed `lint.allow`.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let paths =
        scan::collect_sources(root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        files.push(
            scan::SourceFile::load(root, path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
    }
    let entries = allow::load(root)?;
    Ok(lint_sources(root, &files, &entries))
}

/// The pure core of [`run_lint`]: lints pre-loaded sources against a
/// parsed allowlist (fixture tests drive this directly).
pub fn lint_sources(
    root: &Path,
    files: &[scan::SourceFile],
    entries: &[allow::AllowEntry],
) -> LintReport {
    let mut raw = Vec::new();
    for file in files {
        for rule in rules::all() {
            (rule.check)(rule, file, &mut raw);
        }
    }
    let (mut violations, mut allowed) = allow::apply(entries, raw, |v| {
        files
            .iter()
            .find(|f| f.rel_path == v.file)
            .and_then(|f| f.raw.get(v.line - 1))
            .cloned()
            .unwrap_or_default()
    });
    violations.sort_by(|a, b| (&a.file, a.line, &a.code).cmp(&(&b.file, b.line, &b.code)));
    allowed.sort_by(|a, b| (&a.file, a.line, &a.code).cmp(&(&b.file, b.line, &b.code)));
    let rules = LintReport::tally(&violations, &allowed);
    LintReport {
        root: root.display().to_string(),
        files_scanned: files.len(),
        rules,
        violations,
        allowed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_are_stable_and_unique() {
        let codes: Vec<&str> = rules::all().iter().map(|r| r.code).collect();
        assert_eq!(
            codes,
            vec![
                "AMRM-L001",
                "AMRM-L002",
                "AMRM-L003",
                "AMRM-L004",
                "AMRM-L005",
                "AMRM-L006",
                "AMRM-L007",
                "AMRM-L008",
                "AMRM-L009",
                "AMRM-L010",
            ]
        );
    }

    #[test]
    fn tally_is_zeros_included() {
        let report = lint_sources(Path::new("."), &[], &[]);
        assert_eq!(report.rules.len(), rules::all().len());
        assert!(report.rules.iter().all(|r| r.violations == 0));
        assert!(report.is_clean());
    }
}
