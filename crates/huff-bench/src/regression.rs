//! Bench-regression gate: compare freshly-run sweep rows against the
//! committed `results/BENCH_*.json` baselines.
//!
//! The baselines are line-delimited `rsh-bench-v1` rows. Rows pair up by
//! a *key* (the configuration fields — dataset, device, grid point,
//! decoder); each paired row is then compared metric by metric under a
//! relative noise tolerance. Every metric has a direction: throughput
//! and speedup regress when they *drop*, modeled times when they *rise*.
//! Host wall-clock (`wall_ms`) is machine-dependent and never compared.
//!
//! A missing or unexpected key is always a regression — a silently
//! dropped configuration is the exact decay the gate exists to catch.
//! Improvements beyond the tolerance are reported (so stale baselines
//! are visible) but do not fail the gate; refresh them with
//! `huff-bench regression --update-baselines` (see EXPERIMENTS.md).

use serde::json::Value;

/// Default relative noise tolerance. The modeled figures are
/// deterministic, so this only has to absorb float churn from compiler
/// or dependency drift — 2 % is generous.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// Which way a metric regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: a drop beyond tolerance is a regression.
    HigherIsBetter,
    /// Time-like: a rise beyond tolerance is a regression.
    LowerIsBetter,
}

/// One compared metric: its row field name and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Field name inside the `row` object.
    pub name: &'static str,
    /// Which way it regresses.
    pub direction: Direction,
}

/// Key and metric schema of the `pipeline` table.
pub const PIPELINE_KEY: &[&str] = &["dataset", "device", "devices", "shards", "streams"];
/// Compared metrics of the `pipeline` table.
pub const PIPELINE_METRICS: &[MetricSpec] = &[
    MetricSpec { name: "makespan_ms", direction: Direction::LowerIsBetter },
    MetricSpec { name: "serial_ms", direction: Direction::LowerIsBetter },
    MetricSpec { name: "speedup", direction: Direction::HigherIsBetter },
    MetricSpec { name: "modeled_gbps", direction: Direction::HigherIsBetter },
    MetricSpec { name: "ratio", direction: Direction::HigherIsBetter },
];

/// Key and metric schema of the `decode` table.
pub const DECODE_KEY: &[&str] = &["dataset", "decoder"];
/// Compared metrics of the `decode` table.
pub const DECODE_METRICS: &[MetricSpec] = &[
    MetricSpec { name: "modeled_ms", direction: Direction::LowerIsBetter },
    MetricSpec { name: "modeled_gbps", direction: Direction::HigherIsBetter },
];

/// Key of the `autotune` table. The whole decision (dispatch, `r`,
/// shards, streams, decoder) is part of the key on purpose: a
/// tuning-policy change that flips a decision against the committed
/// baseline shows up as a missing/unexpected key, not a silent
/// throughput delta.
pub const AUTOTUNE_KEY: &[&str] =
    &["dataset", "device", "dispatch", "reduction", "shards", "streams", "decoder"];
/// Compared metrics of the `autotune` table.
pub const AUTOTUNE_METRICS: &[MetricSpec] = &[
    MetricSpec { name: "fixed_gbps", direction: Direction::HigherIsBetter },
    MetricSpec { name: "auto_gbps", direction: Direction::HigherIsBetter },
];

/// Key of the `kernels` table. `plan` and `bound` are both part of the
/// key on purpose: a kernel regressing its roofline `Bound` class under
/// either plan (say `enc_breaking_backtrace` sliding from `memory` back
/// to `latency`) surfaces as a missing/unexpected baseline row — a hard
/// failure — rather than a quiet efficiency delta.
pub const KERNEL_KEY: &[&str] = &["dataset", "device", "plan", "kernel", "bound"];
/// Compared metrics of the `kernels` table.
pub const KERNEL_METRICS: &[MetricSpec] = &[
    MetricSpec { name: "modeled_ms", direction: Direction::LowerIsBetter },
    MetricSpec { name: "efficiency", direction: Direction::HigherIsBetter },
];

/// Key of the `latency` table: one row per request class of the pinned
/// seeded chaos storm ([`crate::sweeps::latency_rows`]).
pub const LATENCY_KEY: &[&str] = &["dataset", "class"];
/// Compared metrics of the `latency` table. Both percentiles are
/// **virtual-time** figures from the engine's modeled clock —
/// deterministic for the pinned storm seed — so they sit under the same
/// 2 % tolerance as every other modeled metric; host wall-clock
/// (`wall_ms`) remains the only excluded column.
pub const LATENCY_METRICS: &[MetricSpec] = &[
    MetricSpec { name: "p50_ms", direction: Direction::LowerIsBetter },
    MetricSpec { name: "p99_ms", direction: Direction::LowerIsBetter },
];

/// Key of the `range` table. `slice_pct` is part of the key so each
/// slice width is compared against its own baseline row; a range decode
/// silently falling back from the seek index to the prefix scan shows up
/// as a `range_ms`/`speedup` regression on every row.
pub const RANGE_KEY: &[&str] = &["dataset", "decoder", "slice_pct"];
/// Compared metrics of the `range` table.
pub const RANGE_METRICS: &[MetricSpec] = &[
    MetricSpec { name: "range_ms", direction: Direction::LowerIsBetter },
    MetricSpec { name: "speedup", direction: Direction::HigherIsBetter },
    MetricSpec { name: "overhead_pct", direction: Direction::LowerIsBetter },
];

/// Outcome of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance of the baseline.
    Ok,
    /// Better than baseline by more than the tolerance (baseline is
    /// stale — consider `--update-baselines`).
    Improved,
    /// Worse than baseline by more than the tolerance.
    Regressed,
}

impl Status {
    /// Stable lower-case name used in the report.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Regressed => "REGRESSED",
        }
    }
}

/// One metric's delta between baseline and current.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Table the row belongs to.
    pub table: &'static str,
    /// Rendered row key, e.g. `enwik8/V100/1/4/2`.
    pub key: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Signed relative change, `(current - baseline) / baseline`.
    pub change: f64,
    /// Classification under the tolerance and the metric's direction.
    pub status: Status,
}

/// Full comparison of one table: per-metric deltas plus any key
/// mismatches between baseline and current row sets.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every compared metric, in baseline row order.
    pub deltas: Vec<Delta>,
    /// Keys present in the baseline but not re-measured.
    pub missing: Vec<String>,
    /// Keys measured but absent from the baseline.
    pub unexpected: Vec<String>,
}

impl Comparison {
    /// Number of regressed metrics (key mismatches count too).
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.status == Status::Regressed).count()
            + self.missing.len()
            + self.unexpected.len()
    }

    /// Gate verdict: no regressed metrics and no key mismatches.
    pub fn ok(&self) -> bool {
        self.regressions() == 0
    }

    /// Merge another table's comparison into this one.
    pub fn merge(&mut self, other: Comparison) {
        self.deltas.extend(other.deltas);
        self.missing.extend(other.missing);
        self.unexpected.extend(other.unexpected);
    }

    /// The full per-metric delta report, one line per comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<9} {:<32} {:<13} {:>14} {:>14} {:>8}  {}\n",
            "table", "key", "metric", "baseline", "current", "delta", "status"
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<9} {:<32} {:<13} {:>14.6} {:>14.6} {:>+7.2}%  {}\n",
                d.table,
                d.key,
                d.metric,
                d.baseline,
                d.current,
                d.change * 100.0,
                d.status.name()
            ));
        }
        for k in &self.missing {
            out.push_str(&format!("missing from current run: {k}\n"));
        }
        for k in &self.unexpected {
            out.push_str(&format!("not in baseline: {k}\n"));
        }
        out
    }

    /// A short summary: counts per status plus the worst swing.
    pub fn summary(&self) -> String {
        let count = |s: Status| self.deltas.iter().filter(|d| d.status == s).count();
        let worst = self
            .deltas
            .iter()
            .max_by(|a, b| a.change.abs().total_cmp(&b.change.abs()))
            .map_or(String::from("no deltas"), |d| {
                format!(
                    "largest swing {:+.2}% on {}/{}/{}",
                    d.change * 100.0,
                    d.table,
                    d.key,
                    d.metric
                )
            });
        format!(
            "{} metrics compared: {} ok, {} improved, {} regressed, {} missing, {} unexpected; {}",
            self.deltas.len(),
            count(Status::Ok),
            count(Status::Improved),
            count(Status::Regressed),
            self.missing.len(),
            self.unexpected.len(),
            worst
        )
    }
}

/// Parse a committed baseline file: one `rsh-bench-v1` line per row, all
/// belonging to `table`. Returns the inner `row` objects.
pub fn parse_baseline(text: &str, table: &str) -> Result<Vec<Value>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let obj = v.as_object().ok_or_else(|| format!("line {}: not an object", i + 1))?;
        match obj.get("schema").and_then(Value::as_str) {
            Some(s) if s == crate::BENCH_SCHEMA => {}
            other => return Err(format!("line {}: bad schema {other:?}", i + 1)),
        }
        match obj.get("table").and_then(Value::as_str) {
            Some(t) if t == table => {}
            other => {
                return Err(format!("line {}: expected table {table:?}, got {other:?}", i + 1))
            }
        }
        rows.push(obj.get("row").cloned().ok_or_else(|| format!("line {}: no row", i + 1))?);
    }
    if rows.is_empty() {
        return Err(format!("no {table} rows in baseline"));
    }
    Ok(rows)
}

/// Render a row's key fields as a stable `/`-joined string.
fn key_of(row: &Value, key_fields: &[&str]) -> String {
    key_fields
        .iter()
        .map(|f| match row.as_object().and_then(|o| o.get(f)) {
            Some(Value::String(s)) => s.clone(),
            Some(v) => v.to_string(),
            None => String::from("?"),
        })
        .collect::<Vec<_>>()
        .join("/")
}

fn metric_of(row: &Value, name: &str) -> Option<f64> {
    row.as_object()?.get(name)?.as_f64()
}

/// Compare `current` rows against `baseline` rows, pairing by
/// `key_fields` and judging each of `metrics` under `tolerance`.
pub fn compare(
    table: &'static str,
    key_fields: &[&str],
    metrics: &[MetricSpec],
    baseline: &[Value],
    current: &[Value],
    tolerance: f64,
) -> Comparison {
    let mut cmp = Comparison::default();
    let current_keyed: Vec<(String, &Value)> =
        current.iter().map(|r| (key_of(r, key_fields), r)).collect();
    let mut matched = vec![false; current_keyed.len()];

    for base_row in baseline {
        let key = key_of(base_row, key_fields);
        let Some(pos) = current_keyed.iter().position(|(k, _)| *k == key) else {
            cmp.missing.push(format!("{table}/{key}"));
            continue;
        };
        matched[pos] = true;
        let cur_row = current_keyed[pos].1;
        for m in metrics {
            let (Some(b), Some(c)) = (metric_of(base_row, m.name), metric_of(cur_row, m.name))
            else {
                cmp.missing.push(format!("{table}/{key}/{}", m.name));
                continue;
            };
            let change = if b == 0.0 {
                if c == 0.0 {
                    0.0
                } else {
                    f64::INFINITY.copysign(c)
                }
            } else {
                (c - b) / b.abs()
            };
            // A positive `worse` means the metric moved in its bad
            // direction, whatever that direction is.
            let worse = match m.direction {
                Direction::LowerIsBetter => change,
                Direction::HigherIsBetter => -change,
            };
            let status = if worse > tolerance {
                Status::Regressed
            } else if worse < -tolerance {
                Status::Improved
            } else {
                Status::Ok
            };
            cmp.deltas.push(Delta {
                table,
                key: key.clone(),
                metric: m.name,
                baseline: b,
                current: c,
                change,
                status,
            });
        }
    }
    for (i, (key, _)) in current_keyed.iter().enumerate() {
        if !matched[i] {
            cmp.unexpected.push(format!("{table}/{key}"));
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_json;
    use serde::Serialize;

    #[derive(Serialize, Clone)]
    struct Row {
        dataset: String,
        decoder: &'static str,
        modeled_ms: f64,
        modeled_gbps: f64,
        wall_ms: f64,
    }

    fn row(dataset: &str, decoder: &'static str, ms: f64, gbps: f64) -> Value {
        Row { dataset: dataset.into(), decoder, modeled_ms: ms, modeled_gbps: gbps, wall_ms: 1.0 }
            .to_json()
    }

    fn baseline() -> Vec<Value> {
        vec![row("enwik8", "chunked", 0.05, 117.0), row("enwik8", "lut", 0.04, 118.0)]
    }

    #[test]
    fn identical_runs_pass() {
        let cmp = compare("decode", DECODE_KEY, DECODE_METRICS, &baseline(), &baseline(), 0.02);
        assert!(cmp.ok(), "{}", cmp.render());
        assert_eq!(cmp.deltas.len(), 4);
        assert!(cmp.deltas.iter().all(|d| d.status == Status::Ok));
    }

    #[test]
    fn noise_within_tolerance_passes() {
        let current =
            vec![row("enwik8", "chunked", 0.0505, 116.0), row("enwik8", "lut", 0.04, 118.5)];
        let cmp = compare("decode", DECODE_KEY, DECODE_METRICS, &baseline(), &current, 0.02);
        assert!(cmp.ok(), "{}", cmp.render());
    }

    #[test]
    fn synthetic_degradation_beyond_tolerance_fails() {
        // Throughput degraded 10 % >> 2 % tolerance: the gate must trip.
        let current =
            vec![row("enwik8", "chunked", 0.055, 105.3), row("enwik8", "lut", 0.04, 118.0)];
        let cmp = compare("decode", DECODE_KEY, DECODE_METRICS, &baseline(), &current, 0.02);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions(), 2); // modeled_ms up AND modeled_gbps down
        let report = cmp.render();
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("modeled_gbps"));
    }

    #[test]
    fn improvement_beyond_tolerance_is_reported_not_failed() {
        let current =
            vec![row("enwik8", "chunked", 0.02, 290.0), row("enwik8", "lut", 0.04, 118.0)];
        let cmp = compare("decode", DECODE_KEY, DECODE_METRICS, &baseline(), &current, 0.02);
        assert!(cmp.ok(), "{}", cmp.render());
        assert!(cmp.deltas.iter().any(|d| d.status == Status::Improved));
        assert!(cmp.summary().contains("2 improved"));
    }

    #[test]
    fn missing_and_unexpected_keys_fail() {
        let current =
            vec![row("enwik8", "chunked", 0.05, 117.0), row("enwik8", "serial", 1.0, 0.1)];
        let cmp = compare("decode", DECODE_KEY, DECODE_METRICS, &baseline(), &current, 0.02);
        assert!(!cmp.ok());
        assert_eq!(cmp.missing, vec!["decode/enwik8/lut"]);
        assert_eq!(cmp.unexpected, vec!["decode/enwik8/serial"]);
    }

    #[test]
    fn wall_clock_is_never_compared() {
        let mut noisy = baseline();
        // wall_ms differs wildly; no compared metric mentions it.
        if let Value::Object(o) = &mut noisy[0] {
            o.insert("wall_ms".into(), Value::Float(9999.0));
        }
        let cmp = compare("decode", DECODE_KEY, DECODE_METRICS, &baseline(), &noisy, 0.02);
        assert!(cmp.ok());
        assert!(cmp.deltas.iter().all(|d| d.metric != "wall_ms"));
    }

    #[test]
    fn parse_baseline_roundtrips_emitted_rows() {
        let text = [
            row_json(
                "decode",
                &Row {
                    dataset: "a".into(),
                    decoder: "chunked",
                    modeled_ms: 1.0,
                    modeled_gbps: 2.0,
                    wall_ms: 1.0,
                },
            ),
            row_json(
                "decode",
                &Row {
                    dataset: "b".into(),
                    decoder: "lut",
                    modeled_ms: 3.0,
                    modeled_gbps: 4.0,
                    wall_ms: 1.0,
                },
            ),
        ]
        .join("\n");
        let rows = parse_baseline(&text, "decode").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(key_of(&rows[0], DECODE_KEY), "a/chunked");
        assert_eq!(metric_of(&rows[1], "modeled_gbps"), Some(4.0));
    }

    #[test]
    fn parse_baseline_rejects_wrong_table_and_garbage() {
        assert!(parse_baseline("", "decode").is_err());
        assert!(parse_baseline("{not json", "decode").is_err());
        let wrong = row_json(
            "pipeline",
            &Row {
                dataset: "a".into(),
                decoder: "chunked",
                modeled_ms: 1.0,
                modeled_gbps: 2.0,
                wall_ms: 1.0,
            },
        );
        assert!(parse_baseline(&wrong, "decode").is_err());
    }

    #[derive(Serialize, Clone)]
    struct KRow {
        dataset: String,
        device: &'static str,
        plan: &'static str,
        kernel: String,
        bound: &'static str,
        modeled_ms: f64,
        efficiency: f64,
        wall_ms: f64,
    }

    fn krow(plan: &'static str, kernel: &str, bound: &'static str, ms: f64) -> Value {
        KRow {
            dataset: "accept-64mb".into(),
            device: "V100",
            plan,
            kernel: kernel.into(),
            bound,
            modeled_ms: ms,
            efficiency: 0.8,
            wall_ms: 1.0,
        }
        .to_json()
    }

    #[test]
    fn bound_class_flip_is_a_hard_failure() {
        // The Bound class is part of the kernels key: a kernel keeping its
        // time but flipping classification must fail the gate as a
        // missing + unexpected key pair, not pass as an "ok" metric delta.
        let base = vec![
            krow("fused", "hist_fused_reduction", "memory", 0.1),
            krow("fused", "enc_shuffle_merge", "memory", 0.2),
        ];
        let flipped = vec![
            krow("fused", "hist_fused_reduction", "latency", 0.1),
            krow("fused", "enc_shuffle_merge", "memory", 0.2),
        ];
        let cmp = compare("kernels", KERNEL_KEY, KERNEL_METRICS, &base, &flipped, 0.02);
        assert!(!cmp.ok());
        assert_eq!(cmp.missing, vec!["kernels/accept-64mb/V100/fused/hist_fused_reduction/memory"]);
        assert_eq!(
            cmp.unexpected,
            vec!["kernels/accept-64mb/V100/fused/hist_fused_reduction/latency"]
        );
        // Identical runs still pass, and wall clock is never compared.
        let same = compare("kernels", KERNEL_KEY, KERNEL_METRICS, &base, &base, 0.02);
        assert!(same.ok(), "{}", same.render());
        assert!(same.deltas.iter().all(|d| d.metric != "wall_ms"));
    }

    #[test]
    fn zero_baseline_handled() {
        let b = vec![row("z", "chunked", 0.0, 0.0)];
        let same = compare("decode", DECODE_KEY, DECODE_METRICS, &b, &b, 0.02);
        assert!(same.ok());
        let worse = vec![row("z", "chunked", 1.0, 0.0)];
        let cmp = compare("decode", DECODE_KEY, DECODE_METRICS, &b, &worse, 0.02);
        assert!(!cmp.ok());
    }
}
