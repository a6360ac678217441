//! Self-tests of the benchmark: metric names, the result-line format, the
//! gap tracer's accounting, variant identity and the typed error paths.

use perfbench::measure::{run_cells, run_inline, run_scenario, END_TO_END, PER_LAYER};
use perfbench::report::{
    error_row, fnv1a, median, quantile, BenchError, ErrorKind, Metric, RunReport,
};
use perfbench::workload::{scenario_spec, Variant, Workload, DEFAULT_SEED};
use riot_core::{MonitorSpec, ScenarioSpec, StreamSpec};
use riot_model::MaturityLevel;
use riot_sim::{Json, SimDuration};

/// A minimal JSON reader, enough to read back what `Json::render` writes
/// and to read `BENCHMARK.json`.
struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Json {
        let mut r = Reader {
            s: text.as_bytes(),
            i: 0,
        };
        let v = r.value();
        r.ws();
        assert_eq!(r.i, r.s.len(), "trailing input");
        v
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(self.s[self.i], b, "expected '{}' at {}", b as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(pairs);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    pairs.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(pairs);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.i += 1;
                }
                let tok = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                if tok.contains(['.', 'e', 'E']) {
                    Json::Float(tok.parse().unwrap())
                } else if tok.starts_with('-') {
                    Json::Int(tok.parse().unwrap())
                } else {
                    Json::UInt(tok.parse().unwrap())
                }
            }
        }
    }

    fn string(&mut self) -> String {
        assert_eq!(self.s[self.i], b'"');
        self.i += 1;
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => other as char,
                    });
                }
                _ => {
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.s.len() && (self.s[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..end]).unwrap());
                    self.i = end;
                }
            }
        }
    }
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Obj(pairs) => &pairs.iter().find(|(k, _)| k == key).unwrap().1,
        _ => panic!("not an object looking up {key}"),
    }
}

fn text(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        _ => panic!("not a string"),
    }
}

fn named_list(v: &Json) -> Vec<(String, String)> {
    match v {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_owned(),
                    text(field(m, "unit")).to_owned(),
                )
            })
            .collect(),
        _ => panic!("not an array"),
    }
}

/// `true` when `name` matches `[A-Za-z0-9_.-]+`.
fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    for name in &all {
        assert!(valid_metric_name(name), "bad metric name {name}");
    }
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "metric names are unique");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Reader::parse(&std::fs::read_to_string(path).unwrap());
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(named_list(field(&bench, "end_to_end")), own(&END_TO_END));
    assert_eq!(named_list(field(&bench, "per_layer")), own(&PER_LAYER));
    let workloads: Vec<String> = match field(&bench, "workloads") {
        Json::Arr(items) => items
            .iter()
            .map(|w| text(field(w, "name")).to_owned())
            .collect(),
        _ => panic!("workloads is not an array"),
    };
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn result_and_error_lines_round_trip() {
    let report = RunReport {
        correct: true,
        attempted: 12,
        failed: 0,
        metrics: vec![
            Metric::new("events_per_s", "events/s", 451_234.567_890_123),
            Metric::new("setup_s", "s", 0.003_210_987_654_321),
            Metric::new("sim.events", "count", 900_001.0),
            Metric::new("trace.overhead", "ratio", -0.012_5),
        ],
    };
    let json = report.to_json();
    let line = json.render();
    assert!(!line.contains('\n'));
    assert_eq!(Reader::parse(&line), json);
    let keys: Vec<&str> = match &json {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => unreachable!(),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

    let err = BenchError::new(ErrorKind::InvalidSpec, "a \"quoted\" message");
    let row = error_row("ml4_storm", &err, 3, 1);
    assert_eq!(Reader::parse(&row.render()), row);
}

/// A small ML4 run with monitors and streams: every layer the traced run
/// attributes is active.
fn small_ml4() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("selftest", MaturityLevel::Ml4, DEFAULT_SEED);
    spec.edges = 3;
    spec.devices_per_edge = 6;
    spec.duration = SimDuration::from_secs(20);
    spec.warmup = SimDuration::from_secs(5);
    spec.monitors.push(MonitorSpec::new(
        "coverage_recovers",
        "G (!coverage -> F coverage)",
    ));
    spec.streams = StreamSpec::standard();
    spec
}

#[test]
fn gap_buckets_sum_to_the_traced_run_wall_time() {
    let sample = run_scenario(|| Ok(small_ml4()), Variant::Traced).unwrap();
    let gaps = sample.gaps.expect("traced runs carry gap totals");
    // Buckets, head and tail tile the run exactly; only the reads of the
    // clock around `Scenario::run` fall outside them.
    let tolerance = 0.02 * sample.run_s + 0.002;
    assert!(
        (gaps.total_secs() - sample.run_s).abs() <= tolerance,
        "buckets sum to {} s, run took {} s",
        gaps.total_secs(),
        sample.run_s
    );
    assert!(gaps.counts.sent > 0 && gaps.counts.delivered > 0 && gaps.counts.timer_fired > 0);
    assert!(gaps.counts.delivered <= gaps.counts.sent);
}

#[test]
fn traced_and_variant_runs_reproduce_the_untraced_run() {
    let base = run_scenario(|| Ok(small_ml4()), Variant::Base).unwrap();
    for variant in [Variant::Traced, Variant::NoMonitors, Variant::NoStreams] {
        let other = run_scenario(|| Ok(small_ml4()), variant).unwrap();
        assert_eq!(other.digest, base.digest, "{variant:?} changed the results");
        assert_eq!(
            other.events, base.events,
            "{variant:?} changed the event count"
        );
    }
    let once = run_scenario(|| Ok(small_ml4()), Variant::SampleOnce).unwrap();
    assert_eq!(once.stream_key, base.stream_key, "sampling changed the run");
    assert_ne!(
        once.digest, base.digest,
        "one sample must change the series"
    );
}

#[test]
fn bad_input_becomes_typed_errors() {
    let unknown = Workload::from_name("ml9_fleet").unwrap_err();
    assert_eq!(unknown.kind, ErrorKind::UnknownWorkload);

    let invalid = run_cells(&[1], 1, Variant::Base, |_| {
        let mut spec = small_ml4();
        spec.trace_tail = Some(0);
        Ok(spec)
    });
    let err = invalid.first_error().expect("validate rejects the spec");
    assert_eq!(err.kind, ErrorKind::InvalidSpec);

    // Scenario::build asserts on a fleet without edges: both the harness
    // cell and the inline runner turn the panic into an error instead of
    // unwinding.
    let no_edges = |_| {
        let mut spec = small_ml4();
        spec.edges = 0;
        Ok(spec)
    };
    let in_cell = run_cells(&[1], 1, Variant::Base, no_edges).first_error();
    let inline = run_inline(1, Variant::Base, no_edges).first_error();
    for err in [in_cell, inline] {
        let err = err.expect("the panic is caught");
        assert_eq!(err.kind, ErrorKind::Panic);
        assert!(err.message.contains("degenerate"), "{}", err.message);
    }
}

#[test]
fn workload_programs_assemble() {
    for w in Workload::ALL {
        match w {
            Workload::FuzzSweep => assert!(w.program().is_none()),
            _ => {
                let spec = scenario_spec(w, 11).unwrap();
                assert_eq!(
                    spec.seed, 11,
                    "the command-line seed replaces the program's"
                );
                assert!(spec.validate().is_ok());
                assert_eq!(spec.streams.is_empty(), w != Workload::Ml4Storm);
            }
        }
    }
    let ml1 = scenario_spec(Workload::Ml1Fleet, DEFAULT_SEED).unwrap();
    assert_eq!(ml1.device_count(), 100_000);
    let ml4 = scenario_spec(Workload::Ml4Storm, DEFAULT_SEED).unwrap();
    assert_eq!(ml4.monitors.len(), 2);
    assert!(!ml4.disruptions.is_empty());
}

#[test]
fn order_statistics_and_digest() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(quantile(&[0.0, 10.0], 0.99), Some(9.9));
    // FNV-1a 64 reference vectors.
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
