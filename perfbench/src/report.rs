//! The result of one run: its schema (written to the result file and read
//! back by the tests) and the one-line summary the benchmark prints last.

use crate::json::Json;
use std::collections::BTreeMap;

/// Version tag of the result-file schema.
pub const SCHEMA: &str = "perfbench-result/1";

/// The end-to-end metrics every workload reports on an untraced run, with
/// units. Everything else a run measures (per-workload figures, p99s,
/// peak memory) is reported beside them, ungated.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("stmts_per_s", "1/s"), ("stmt_p50_ms", "ms")];

/// The per-layer metrics every workload reports on a traced run, with
/// units; a layer the workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("buffer.hit_rate", "ratio"),
    ("buffer.misses", "count"),
    ("buffer.evictions", "count"),
    ("table.scan_self_s", "s"),
    ("sgd.grad_s", "s"),
    ("sgd.rows_visited", "count"),
    ("privacy.noise_draws", "count"),
    ("privacy.noise_s", "s"),
    ("core.calibrate_s", "s"),
    ("session.score_s", "s"),
    ("session.execute_us.count", "us"),
    ("session.execute_us.eval_model", "us"),
    ("session.execute_us.execute", "us"),
    ("session.execute_us.private_count", "us"),
    ("engine.parse_cache_hit_rate", "ratio"),
    ("engine.parse_us.hit", "us"),
    ("engine.parse_us.miss", "us"),
    ("registry.load_us", "us"),
    ("db.read_lock_wait_us", "us"),
    ("db.write_lock_wait_us", "us"),
    ("wal.fsyncs_per_insert", "ratio"),
    ("wal.fsync_ms.p50", "ms"),
    ("wal.fsync_ms.p99", "ms"),
    ("wal.bytes_per_insert", "B"),
    ("checkpoint.count", "count"),
    ("checkpoint.s", "s"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("limits.shed_frac", "ratio"),
    ("server.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// One measured value with its unit and the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub samples: u64,
}

/// Named measurements. Names are unique; later writes replace earlier.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(pub BTreeMap<String, Metric>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0
            .insert(name.into(), Metric { value, unit: unit.to_string(), samples: samples as u64 });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.get(name)
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, m)| {
                    let v = Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit.clone())),
                        ("samples", Json::Num(m.samples as f64)),
                    ]);
                    (k.clone(), v)
                })
                .collect(),
        )
    }

    #[cfg_attr(not(test), allow(dead_code))]
    fn from_json(j: &Json) -> Result<Values, String> {
        let Json::Obj(pairs) = j else { return Err("metrics must be an object".into()) };
        let mut out = Values::default();
        for (k, v) in pairs {
            let value = v.get("value").and_then(Json::as_f64).ok_or(format!("{k}: value"))?;
            let unit = v.get("unit").and_then(Json::as_str).ok_or(format!("{k}: unit"))?;
            let samples = v.get("samples").and_then(Json::as_f64).ok_or(format!("{k}: samples"))?;
            out.0.insert(
                k.clone(),
                Metric { value, unit: unit.to_string(), samples: samples as u64 },
            );
        }
        Ok(out)
    }
}

/// Everything one invocation measured and checked.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The run header: revision, hardware, limits, WAL policy, tables.
    pub header: Json,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Values,
    /// Everything else measured: workload-specific end-to-end figures,
    /// derived ratios, and layer figures beyond the fixed list.
    pub extra: Values,
    /// Per statement kind, where the time went (traced runs).
    pub breakdown: Json,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("workload", Json::str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("header", self.header.clone()),
            ("metrics", self.metrics.to_json()),
            ("extra", self.extra.to_json()),
            ("breakdown", self.breakdown.clone()),
            ("failures", Json::Arr(self.failures.iter().cloned().map(Json::Str).collect())),
        ])
    }

    /// Reads a result file back, checking every key of the schema.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn from_json(j: &Json) -> Result<RunResult, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing key '{k}'"));
        let num = |k: &str| field(k)?.as_f64().ok_or_else(|| format!("'{k}' must be a number"));
        let flag = |k: &str| field(k)?.as_bool().ok_or_else(|| format!("'{k}' must be a bool"));
        if field("schema")?.as_str() != Some(SCHEMA) {
            return Err(format!("schema is not {SCHEMA}"));
        }
        let Json::Arr(failures) = field("failures")? else {
            return Err("'failures' must be an array".into());
        };
        Ok(RunResult {
            workload: field("workload")?.as_str().ok_or("'workload' must be a string")?.into(),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            header: field("header")?.clone(),
            metrics: Values::from_json(field("metrics")?)?,
            extra: Values::from_json(field("extra")?)?,
            breakdown: field("breakdown")?.clone(),
            failures: failures
                .iter()
                .map(|f| f.as_str().map(str::to_string).ok_or("failures are strings"))
                .collect::<Result<_, _>>()?,
        })
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and every metric of this mode with its value and unit.
    pub fn summary_line(&self) -> String {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit.clone()))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut metrics = Values::default();
        metrics.set("stmt_p50_ms", 1.2034, "ms", 6000);
        metrics.set("setup_s", 0.8127, "s", 3);
        let mut extra = Values::default();
        extra.set("stmt_p99_ms", f64::NAN, "ms", 10);
        RunResult {
            workload: "serve-read".into(),
            seed: 7,
            seconds: 10,
            trace: false,
            correct: true,
            attempted: 6000,
            failed: 0,
            header: Json::obj([("hardware_threads", Json::Num(2.0))]),
            metrics,
            extra,
            breakdown: Json::Arr(vec![]),
            failures: vec!["a check".into()],
        }
    }

    #[test]
    fn result_round_trips_through_its_schema() {
        let r = sample();
        let text = r.to_json().dump();
        let back = RunResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // Non-finite values are stored as 0 so the file stays valid JSON.
        assert_eq!(back.extra.get("stmt_p99_ms").unwrap().value, 0.0);
    }

    #[test]
    fn schema_rejects_missing_keys_and_wrong_types() {
        let text = sample().to_json().dump();
        let without = text.replace("\"correct\":true,", "");
        assert!(RunResult::from_json(&Json::parse(&without).unwrap()).is_err());
        let wrong = text.replace("\"seed\":7", "\"seed\":\"7\"");
        assert!(RunResult::from_json(&Json::parse(&wrong).unwrap()).is_err());
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let line = sample().summary_line();
        let j = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &j else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").unwrap().get("stmt_p50_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.2034));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }
}
