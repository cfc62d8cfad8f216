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
/// printing one line per baseline metric with ids padded to `width`. Every
/// such metric is lower-is-better, and only an order-of-magnitude growth
/// (10x) fails: returns `false` then. A missing baseline file skips the
/// comparison (`true`); `label` names the bench in that message.
pub fn compare_baseline(label: &str, width: usize, path: &str, metrics: &[(String, f64)]) -> bool {
    let base = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            println!("\nno {label} baseline at {path} ({e}); skipping comparison");
            return true;
        }
    };
    println!("\ncomparison vs baseline {path} (fail = metric grew 10x):");
    let mut ok = true;
    for line in base.lines().filter(|l| !l.trim().is_empty()) {
        let (Some(id), Some(old)) = (json_string(line, "id"), json_number(line, "value")) else {
            continue;
        };
        let Some((_, cur)) = metrics.iter().find(|(i, _)| i == id) else {
            println!("  {id:<width$} missing from current run");
            continue;
        };
        let ratio = if old > 0.0 { cur / old } else { 1.0 };
        let verdict = if ratio > 10.0 {
            ok = false;
            "FAIL"
        } else {
            "ok"
        };
        println!("  {id:<width$} base {old:>12.1}  cur {cur:>12.1}  x{ratio:<6.2} {verdict}");
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
    fn baseline_guard_fails_only_on_tenfold_growth() {
        let path =
            std::env::temp_dir().join(format!("sp-bench-metrics-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let base = vec![("a".to_string(), 100.0), ("b".to_string(), 0.0)];
        write_metrics(path, &base).unwrap();
        let within = vec![("a".to_string(), 999.0), ("b".to_string(), 5.0)];
        assert!(compare_baseline("test", 8, path, &within));
        let grown = vec![("a".to_string(), 1001.0)];
        assert!(!compare_baseline("test", 8, path, &grown));
        std::fs::remove_file(path).unwrap();
        assert!(
            compare_baseline("test", 8, path, &grown),
            "no baseline: skipped"
        );
    }
}
