//! The metric tables: every name, unit and direction the benchmark
//! reports, and the rendering of `BENCHMARK.json` and of a run's result
//! line from them. `tests/manifest.rs` fails when the checked-in
//! `BENCHMARK.json` differs from [`manifest`].

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::workloads;

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same for every workload. The ISSUE's fifth,
/// `failed_share`, is 0 on a healthy tree and so cannot carry a relative
/// bound; it is reported through the result line's `attempted` and
/// `failed` counts instead.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`.
pub type Layer = (&'static str, &'static str, &'static str);

/// The per-layer metrics. A metric the workload does not exercise (the
/// `exp.*` set on an in-process workload, `protocol.tokenb.*` on a PATCH
/// run, the telemetry ratios off `torus16_patch`) reads 0.
pub const PER_LAYER: [Layer; 88] = [
    // kernel
    ("kernel.push.calls", "count", "lower"),
    ("kernel.push.ns_per_call", "ns", "lower"),
    ("kernel.pop.calls", "count", "lower"),
    ("kernel.pop.ns_per_call", "ns", "lower"),
    ("kernel.share", "ratio", "lower"),
    ("kernel.events_per_op", "events/op", "lower"),
    ("kernel.events_per_s", "events/s", "higher"),
    ("kernel.queue_len_max", "count", "lower"),
    // noc
    ("noc.send.calls", "count", "lower"),
    ("noc.send.ns_per_call", "ns", "lower"),
    ("noc.handle.calls", "count", "lower"),
    ("noc.handle.ns_per_call", "ns", "lower"),
    ("noc.share", "ratio", "lower"),
    ("noc.handles_per_send", "ratio", "lower"),
    ("noc.deliveries_per_send", "ratio", "lower"),
    ("noc.link_bytes_per_miss", "B/miss", "lower"),
    ("noc.dropped_packets", "count", "lower"),
    ("noc.busy_cycles", "cycles", "lower"),
    ("noc.fabric_new_ms", "ms", "lower"),
    // protocol
    ("protocol.directory.core_request.calls", "count", "lower"),
    ("protocol.directory.core_request.ns_per_call", "ns", "lower"),
    ("protocol.directory.handle_message.calls", "count", "lower"),
    (
        "protocol.directory.handle_message.ns_per_call",
        "ns",
        "lower",
    ),
    ("protocol.directory.timer_fired.calls", "count", "lower"),
    ("protocol.directory.timer_fired.ns_per_call", "ns", "lower"),
    ("protocol.tokenb.core_request.calls", "count", "lower"),
    ("protocol.tokenb.core_request.ns_per_call", "ns", "lower"),
    ("protocol.tokenb.handle_message.calls", "count", "lower"),
    ("protocol.tokenb.handle_message.ns_per_call", "ns", "lower"),
    ("protocol.tokenb.timer_fired.calls", "count", "lower"),
    ("protocol.tokenb.timer_fired.ns_per_call", "ns", "lower"),
    ("protocol.patch.core_request.calls", "count", "lower"),
    ("protocol.patch.core_request.ns_per_call", "ns", "lower"),
    ("protocol.patch.handle_message.calls", "count", "lower"),
    ("protocol.patch.handle_message.ns_per_call", "ns", "lower"),
    ("protocol.patch.timer_fired.calls", "count", "lower"),
    ("protocol.patch.timer_fired.ns_per_call", "ns", "lower"),
    ("protocol.share", "ratio", "lower"),
    ("protocol.hit_ratio", "ratio", "higher"),
    ("protocol.msgs_per_miss", "msgs/miss", "lower"),
    ("protocol.patch.direct_useful_ratio", "ratio", "higher"),
    ("protocol.patch.direct_ignored_ratio", "ratio", "lower"),
    ("protocol.patch.tenure_timeouts", "count", "lower"),
    ("protocol.tokenb.reissues", "count", "lower"),
    ("protocol.tokenb.persistent_requests", "count", "lower"),
    ("protocol.build_ms", "ms", "lower"),
    // mem / predictor
    ("mem.cache.ns_per_access", "ns", "lower"),
    ("mem.cache.hit_ratio", "ratio", "higher"),
    ("predictor.predict.ns_per_call", "ns", "lower"),
    ("predictor.observe.ns_per_call", "ns", "lower"),
    // workload
    ("workload.next_item.calls", "count", "lower"),
    ("workload.next_item.ns_per_call", "ns", "lower"),
    ("workload.share", "ratio", "lower"),
    // trace
    ("trace.encode.ns_per_item", "ns", "lower"),
    ("trace.decode.ns_per_item", "ns", "lower"),
    ("trace.bytes_per_item", "B", "lower"),
    // core
    ("core.system_over_shadow_ratio", "ratio", "lower"),
    ("core.glue.share", "ratio", "lower"),
    ("core.system_new_ms", "ms", "lower"),
    ("core.checks.overhead_ratio", "ratio", "lower"),
    ("core.auditor.ns_per_call", "ns", "lower"),
    ("core.checker.ns_per_call", "ns", "lower"),
    ("core.token_audits", "count", "lower"),
    ("core.coherence_checks", "count", "lower"),
    ("core.telemetry.spans_overhead_ratio", "ratio", "lower"),
    ("core.telemetry.profile_overhead_ratio", "ratio", "lower"),
    ("core.sim.digest", "hash", "lower"),
    ("core.sim.runtime_cycles", "cycles", "lower"),
    ("core.sim.miss_latency_mean", "cycles", "lower"),
    // exp / bench
    ("exp.plan.build_ms", "ms", "lower"),
    ("exp.plan.cells", "count", "lower"),
    ("exp.runner.runs", "count", "lower"),
    ("exp.runner.wall_t1_ms", "ms", "lower"),
    ("exp.runner.wall_t2_ms", "ms", "lower"),
    ("exp.runner.speedup_t2", "ratio", "higher"),
    ("exp.runner.failed_cells", "count", "lower"),
    ("exp.store.save.us_per_entry", "us", "lower"),
    ("exp.store.load.us_per_entry", "us", "lower"),
    ("exp.store.bytes_per_entry", "B", "lower"),
    ("exp.store.hit_ratio", "ratio", "higher"),
    ("exp.store.quarantined", "count", "lower"),
    ("exp.table.columns_ms", "ms", "lower"),
    ("exp.emit.csv_ms", "ms", "lower"),
    ("bench.cli.startup_ms", "ms", "lower"),
    // bracket: the tracer itself
    ("bracket.sample_every", "count", "higher"),
    ("bracket.clock_ns", "ns", "lower"),
    ("bracket.cost_ns", "ns", "lower"),
    ("bracket.overhead_ratio", "ratio", "lower"),
];

/// The simulated statistics that must repeat exactly between two runs of
/// one seed, and between a commit and a simulator-only change to it.
pub const EXACT: [&str; 5] = [
    "core.sim.digest",
    "core.sim.runtime_cycles",
    "core.sim.miss_latency_mean",
    "noc.link_bytes_per_miss",
    "kernel.events_per_op",
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// A finite value, or 0 for a ratio whose base was 0.
pub fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in workloads::ALL.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        let sep = if i + 1 < workloads::ALL.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(w.name),
            json_str(&why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json_str(name),
            json_str(unit),
            json_str(better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The outcome of one benchmark run.
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Simulated memory operations attempted in the timed passes.
    pub attempted: u64,
    /// Of those, the ones in a pass that panicked, fell short, or
    /// produced a different result than the workload's first pass.
    pub failed: u64,
    /// The measured values.
    pub values: Values,
}

impl Outcome {
    /// The metrics of this run as `(name, value, unit)`, in table order:
    /// the end-to-end set when `trace` is off, the per-layer set when on.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured, or a value was
    /// recorded under a name the tables do not list.
    pub fn rows(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let names: Vec<(&'static str, &'static str)> = if trace {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for key in self.values.keys() {
            assert!(
                names.iter().any(|(n, _)| n == key),
                "metric {key} is not in the tables"
            );
        }
        names
            .into_iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => finite(v),
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (name, value, unit)
            })
            .collect()
    }

    /// The result line the driver reads.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .rows(trace)
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
