//! Assembles every TSV in a results directory into one Markdown report —
//! a machine-generated appendix to the curated EXPERIMENTS.md.

use crate::experiments::EXPERIMENTS;
use std::fmt::Write as _;
use std::path::Path;

/// Where a TSV stem files in the report: the position of the
/// [`EXPERIMENTS`] entry that wrote it, or `None` for an unclaimed stem.
/// A stem belongs to the first entry with an alias equal to it (`fig8`
/// files under `fig8_9`), failing that to the first entry whose canonical
/// name, `-` read as `_`, equals the stem or is followed in it by `_`
/// (`fluid_clients_diurnal` under `fluid-clients`).
fn registry_position(stem: &str) -> Option<usize> {
    EXPERIMENTS
        .iter()
        .position(|(names, _)| names.contains(&stem))
        .or_else(|| {
            EXPERIMENTS.iter().position(|(names, _)| {
                let canon = names[0].replace('-', "_");
                stem.strip_prefix(&canon)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
            })
        })
}

/// Renders one TSV body (with its `# title` comment line) as a Markdown
/// section. Returns `None` if the content is not in the expected format.
pub fn tsv_to_markdown(body: &str) -> Option<String> {
    let mut lines = body.lines();
    let title = lines.next()?.strip_prefix("# ")?.trim();
    let header: Vec<&str> = lines.next()?.split('\t').collect();
    if header.is_empty() {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(out, "## {title}\n");
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(out, "|{}", "---|".repeat(header.len()));
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut cells: Vec<&str> = line.split('\t').collect();
        cells.resize(header.len(), "");
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    }
    Some(out)
}

/// Reads every `.tsv` under `dir` and produces the full report body.
///
/// # Errors
///
/// Returns an I/O error if the directory cannot be read; unreadable or
/// malformed individual files are skipped with a note.
pub fn render_report(dir: &Path) -> std::io::Result<String> {
    let mut found: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("tsv") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        match std::fs::read_to_string(&path) {
            Ok(body) => found.push((stem, body)),
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    // Registry order, sections of one entry by stem; unclaimed stems last,
    // alphabetically.
    found.sort_by_cached_key(|(stem, _)| {
        (
            registry_position(stem).unwrap_or(EXPERIMENTS.len()),
            stem.clone(),
        )
    });

    let mut out = String::from(
        "# CoScale reproduction — generated results report\n\n\
         Auto-generated from the TSV artifacts; see EXPERIMENTS.md for the\n\
         curated paper-vs-measured analysis.\n\n",
    );
    for (stem, body) in &found {
        match tsv_to_markdown(body) {
            Some(md) => {
                out.push_str(&md);
                out.push('\n');
            }
            None => {
                let _ = writeln!(out, "## {stem}\n\n(unreadable artifact)\n");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_simple_tsv() {
        let md = tsv_to_markdown("# My title\na\tb\n1\t2\n3\t4\n").unwrap();
        assert!(md.contains("## My title"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn pads_short_rows() {
        let md = tsv_to_markdown("# t\na\tb\tc\n1\t2\n").unwrap();
        assert!(md.contains("| 1 | 2 |  |"));
    }

    #[test]
    fn rejects_headerless_input() {
        assert!(tsv_to_markdown("no comment line\n1\t2\n").is_none());
        assert!(tsv_to_markdown("").is_none());
    }

    #[test]
    fn report_orders_known_artifacts_first() {
        let dir = std::env::temp_dir().join("coscale_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("zzz_custom.tsv"), "# Custom\nx\n1\n").unwrap();
        std::fs::write(dir.join("fig5.tsv"), "# Figure 5\nm\tv\nA\t1\n").unwrap();
        std::fs::write(dir.join("table1.tsv"), "# Table 1\nm\tv\nB\t2\n").unwrap();
        let report = render_report(&dir).unwrap();
        let t1 = report.find("## Table 1").unwrap();
        let f5 = report.find("## Figure 5").unwrap();
        let cu = report.find("## Custom").unwrap();
        assert!(t1 < f5 && f5 < cu, "ordering wrong: {t1} {f5} {cu}");
    }
}
