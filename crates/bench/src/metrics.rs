//! Line-JSON metric files shared by the bench binaries: `topo` and
//! `traffic` write one `{"id":"…","value":…}` object per line
//! (`BENCH_topo.json`, `BENCH_traffic.json`), and the engine bench writes
//! `{"id":"…","ns_per_iter":…,"elems_per_sec":…}` (`BENCH_engine.json`).
//! The parsers are hand-rolled: the workspace has no JSON dependency, and
//! the files are only ever written by these same binaries.

use std::io::Write;

/// Pull `"key":<number>` out of one JSON line.
pub fn json_number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E' | ' '))
        .unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Pull `"key":"<string>"` out of one JSON line.
pub fn json_string<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// Write `metrics` to `path`, one `{"id":…,"value":…}` line each.
pub fn write_metrics(path: &str, metrics: &[(String, f64)]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    for (id, value) in metrics {
        writeln!(f, "{{\"id\":\"{id}\",\"value\":{value:.3}}}")?;
    }
    Ok(())
}

/// Compare `metrics` against the `{"id":…,"value":…}` baseline at `path`,
/// printing one line per baseline metric with ids padded to `width`. The
/// metrics are virtual-time figures, deterministic for a given build, so
/// each must equal its baseline at the 3 decimals [`write_metrics`]
/// writes, and every baseline metric must be in `metrics`: returns
/// `false` otherwise. A missing baseline file skips the comparison
/// (`true`); `label` names the bench in that message.
pub fn compare_baseline(label: &str, width: usize, path: &str, metrics: &[(String, f64)]) -> bool {
    let base = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            println!("\nno {label} baseline at {path} ({e}); skipping comparison");
            return true;
        }
    };
    println!("\ncomparison vs baseline {path} (fail = any difference):");
    let mut ok = true;
    for line in base.lines().filter(|l| !l.trim().is_empty()) {
        let (Some(id), Some(old)) = (json_string(line, "id"), json_number(line, "value")) else {
            continue;
        };
        let Some((_, cur)) = metrics.iter().find(|(i, _)| i == id) else {
            println!("  {id:<width$} missing from current run  FAIL");
            ok = false;
            continue;
        };
        let (old, cur) = (format!("{old:.3}"), format!("{cur:.3}"));
        let verdict = if old == cur {
            "ok"
        } else {
            ok = false;
            "FAIL"
        };
        println!("  {id:<width$} base {old:>14}  cur {cur:>14}  {verdict}");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPO: &str = include_str!("../../../BENCH_topo.json");

    #[test]
    fn parses_the_committed_topo_baseline() {
        let metrics: Vec<(String, f64)> = TOPO
            .lines()
            .map(|l| {
                let id = json_string(l, "id").expect("id");
                let value = json_number(l, "value").expect("value");
                (id.to_string(), value)
            })
            .collect();
        assert_eq!(metrics.len(), 16);
        assert!(metrics
            .iter()
            .all(|(id, v)| id.starts_with("topo/") && *v >= 0.0));
        assert_eq!(metrics[0].0, "topo/round-robin-p50-rtt-ns");
        assert_eq!(metrics[0].1, 56111.0);
    }

    #[test]
    fn parses_engine_lines_and_exponents() {
        let line = r#"{"id":"engine/advance-1x10k","ns_per_iter":452692.3,"elems_per_sec": 2.2e7}"#;
        assert_eq!(json_string(line, "id"), Some("engine/advance-1x10k"));
        assert_eq!(json_number(line, "ns_per_iter"), Some(452692.3));
        assert_eq!(json_number(line, "elems_per_sec"), Some(2.2e7));
        assert_eq!(json_number(line, "missing"), None);
    }

    #[test]
    fn baseline_guard_requires_every_metric_equal_at_three_decimals() {
        let path =
            std::env::temp_dir().join(format!("sp-bench-metrics-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let base = vec![("a".to_string(), 100.0), ("b".to_string(), 0.25)];
        write_metrics(path, &base).unwrap();
        let m = |a: f64, b: f64| vec![("a".to_string(), a), ("b".to_string(), b)];
        assert!(compare_baseline("test", 8, path, &m(100.0, 0.25)));
        assert!(
            compare_baseline("test", 8, path, &m(100.0004, 0.2501)),
            "equal at 3 decimals"
        );
        assert!(
            !compare_baseline("test", 8, path, &m(100.001, 0.25)),
            "grew"
        );
        assert!(
            !compare_baseline("test", 8, path, &m(99.999, 0.25)),
            "shrank"
        );
        let missing = vec![("a".to_string(), 100.0)];
        assert!(!compare_baseline("test", 8, path, &missing), "b missing");
        std::fs::remove_file(path).unwrap();
        assert!(
            compare_baseline("test", 8, path, &missing),
            "no baseline: skipped"
        );
    }
}
