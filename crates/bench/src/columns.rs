//! The column sets a plan's finished table is declared with: the
//! standard, runtime, traffic, and saturation sets [`decorate`] applies
//! through each [`PLANS`] row, and the span columns `--spans` appends.
//!
//! [`decorate`]: crate::decorate
//! [`PLANS`]: crate::PLANS

use patchsim::exp::{CellResult, Table};
use patchsim::{ProtocolCounters, TrafficClass};
use patchsim_mem::SharerSet;

pub(crate) fn figure5_columns(table: Table) -> Table {
    with_traffic_columns(
        table,
        "Figure 5: traffic per miss by class",
        "config",
        "Directory",
    )
    .with_note("class columns are bytes/miss; norm_traffic is normalized to the Directory row")
    .with_note(
        "paper shape: PATCH-None ~ Directory +2%; PATCH-Owner ~ +20%; PATCH-All ~ +145%; \
         TokenB comparable to PATCH-All",
    )
}

pub(crate) fn figure6_columns(table: Table) -> Table {
    with_bandwidth_columns(table, "Figure 6: bandwidth adaptivity on ocean").with_note(
        "paper shape: PATCH-All-NA collapses at low bandwidth while adaptive \
         PATCH-All stays at or below Directory (mid-sweep win up to ~6.3%)",
    )
}

pub(crate) fn figure7_columns(table: Table) -> Table {
    with_bandwidth_columns(table, "Figure 7: bandwidth adaptivity on jbb")
        .with_note("paper shape: same as Figure 6 with a mid-sweep PATCH-All win of up to ~5.2%")
}

pub(crate) fn figure8_columns(table: Table) -> Table {
    with_runtime_columns(
        table,
        "Figure 8: microbenchmark scalability (2 B/cycle links)",
        "config",
        "Directory",
    )
    .with_note("norm_runtime is normalized to Directory at the same core count")
    .with_note(
        "paper shape: PATCH-All-NA wins up to 64 cores then collapses; adaptive \
         PATCH-All stays ahead of Directory up to ~256 cores",
    )
}

pub(crate) fn figure9_columns(table: Table) -> Table {
    with_runtime_columns(
        table,
        "Figure 9: runtime vs sharer-encoding coarseness",
        "K",
        "1",
    )
    .with_note(
        "norm_runtime is normalized to the K=1 (full-map) row of the same \
         cores/config/links group",
    )
    .with_note(
        "paper shape: flat with unbounded links; with 2 B/cycle links Directory \
         degrades up to ~142% at 256 cores single-bit while PATCH grows a few percent",
    )
}

pub(crate) fn figure10_columns(table: Table) -> Table {
    with_traffic_columns(
        table,
        "Figure 10: traffic per miss vs sharer-encoding coarseness",
        "K",
        "1",
    )
    .with_note(
        "class columns are bytes/miss; norm_traffic is normalized to the K=1 (full-map) \
         row of the same cores/config group",
    )
    .with_note(
        "paper shape: Directory becomes ack-dominated as the encoding coarsens (up to \
         +319% at 256 cores single-bit) while PATCH grows at most ~32%",
    )
}

pub(crate) fn tenure_timeout_columns(table: Table) -> Table {
    table
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_column("tenure_timeouts", 0, |cell| {
            counter_total(cell, |c| c.tenure_timeouts)
        })
        .with_column("writebacks", 0, |cell| {
            counter_total(cell, |c| c.writebacks)
        })
        .with_note(
            "too-short fixed timeouts waste writebacks and refetches; too-long timeouts \
             idle racing tokens — the paper's adaptive 2x round-trip balances both",
        )
}

pub(crate) fn deact_window_columns(table: Table) -> Table {
    table
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_column("tenure_timeouts", 0, |cell| {
            counter_total(cell, |c| c.tenure_timeouts)
        })
        .with_column("direct_ignored", 0, |cell| {
            counter_total(cell, |c| c.direct_ignored)
        })
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_note(
            "disabling the window lets racing direct requests scatter tokens the home \
             is steering, inflating tenure timeouts and traffic",
        )
}

pub(crate) fn stale_drop_columns(table: Table) -> Table {
    table
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_column("drops", 0, |cell| cell.summary.dropped_packets)
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_note(
            "the paper uses a 100-cycle staleness bound: drop too early and useful \
             predictions are lost; too late and stale requests burn scarce bandwidth",
        )
}

pub(crate) fn ack_elision_columns(table: Table) -> Table {
    table
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_column("ack_bytes_per_miss", 1, |cell| {
            cell.summary.class_mean(TrafficClass::Ack)
        })
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_note(
            "forcing Directory-style zero-token acks shows how much of the Figure 9/10 \
             advantage comes from tokenless nodes staying silent",
        )
}

pub(crate) fn limited_pointer_columns(table: Table) -> Table {
    table
        .with_normalized_column("norm_runtime", 3, "encoding", "full-map", |cell| {
            cell.summary.runtime.mean
        })
        .with_column("ack_bytes_per_miss", 1, |cell| {
            cell.summary.class_mean(TrafficClass::Ack)
        })
        .with_column("dir_bits_per_entry", 0, |cell| {
            let protocol = &cell.config.protocol;
            SharerSet::new(protocol.num_nodes, protocol.sharer_encoding).bits_per_entry() as f64
        })
        .with_note(
            "norm_runtime is normalized to the full-map row of the same protocol; \
             limited pointers degrade to broadcast on overflow, which Directory pays \
             for in ack storms while PATCH's tokenless nodes stay silent",
        )
}

/// The default measurement columns: runtime and bytes/miss with 95% CIs,
/// pooled miss-latency percentiles, and best-effort drops.
pub fn with_standard_columns(table: Table) -> Table {
    table
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_column("lat_p50", 0, |cell| {
            cell.summary.miss_latency_percentiles.p50 as f64
        })
        .with_column("lat_p95", 0, |cell| {
            cell.summary.miss_latency_percentiles.p95 as f64
        })
        .with_column("lat_p99", 0, |cell| {
            cell.summary.miss_latency_percentiles.p99 as f64
        })
        .with_column("drops", 0, |cell| cell.summary.dropped_packets)
}

/// A runtime figure's columns: `title`, runtime with a 95% CI, and
/// runtime normalized to the `baseline` row of `axis`.
pub fn with_runtime_columns(table: Table, title: &str, axis: &str, baseline: &str) -> Table {
    table
        .with_title(title)
        .with_ci_column("runtime", 0, |cell| cell.summary.runtime)
        .with_normalized_column("norm_runtime", 3, axis, baseline, |cell| {
            cell.summary.runtime.mean
        })
}

/// Figures 6 and 7: the runtime columns normalized to Directory, plus
/// best-effort drops.
fn with_bandwidth_columns(table: Table, title: &str) -> Table {
    with_runtime_columns(table, title, "config", "Directory")
        .with_column("drops", 0, |cell| cell.summary.dropped_packets)
        .with_note("norm_runtime is normalized to Directory at the same bandwidth")
}

/// Figures 5 and 10: `title`, one bytes-per-miss column per traffic
/// class in [`TrafficClass::ALL`] order, total bytes/miss with a 95% CI,
/// and traffic normalized to the `baseline` row of `axis`.
fn with_traffic_columns(table: Table, title: &str, axis: &str, baseline: &str) -> Table {
    let mut table = table.with_title(title);
    for class in TrafficClass::ALL {
        table = table.with_column(class.label(), 1, move |cell| cell.summary.class_mean(class));
    }
    table
        .with_ci_column("bytes_per_miss", 1, |cell| cell.summary.bytes_per_miss)
        .with_normalized_column("norm_traffic", 2, axis, baseline, |cell| {
            cell.summary.bytes_per_miss.mean
        })
}

/// One protocol counter summed over a cell's replications.
fn counter_total(cell: &CellResult, counter: fn(&ProtocolCounters) -> u64) -> f64 {
    cell.summary
        .runs
        .iter()
        .map(|run| counter(&run.counters))
        .sum::<u64>() as f64
}

/// The `saturation` plan's column set: offered vs achieved rate (both
/// per kilocycle), drop percentage, and pooled arrival→completion
/// sojourn percentiles, plus the closed-loop miss-latency p95 for the
/// flat-vs-exploding contrast and the backlog high-water mark.
pub fn with_saturation_columns(table: Table) -> Table {
    table
        .with_column("offered_per_kc", 3, |cell| {
            cell.summary
                .open_loop
                .unwrap_or_default()
                .offered_per_kcycle
        })
        .with_column("goodput_per_kc", 3, |cell| {
            cell.summary
                .open_loop
                .unwrap_or_default()
                .goodput_per_kcycle
        })
        .with_column("drop_pct", 2, |cell| {
            cell.summary.open_loop.unwrap_or_default().drop_pct
        })
        .with_column("soj_p50", 0, |cell| {
            cell.summary.open_loop.unwrap_or_default().sojourn.p50 as f64
        })
        .with_column("soj_p95", 0, |cell| {
            cell.summary.open_loop.unwrap_or_default().sojourn.p95 as f64
        })
        .with_column("soj_p99", 0, |cell| {
            cell.summary.open_loop.unwrap_or_default().sojourn.p99 as f64
        })
        .with_column("lat_p95", 0, |cell| {
            cell.summary.miss_latency_percentiles.p95 as f64
        })
        .with_column("backlog_hwm", 0, |cell| {
            cell.summary.open_loop.unwrap_or_default().backlog_hwm as f64
        })
}

/// The miss-lifecycle span columns (`--spans`): mean cycles a miss
/// spends in each phase — open-loop queue wait, network (issue to first
/// response), home/ordering (first response to the ordering decision),
/// and token wait (ordering to completion). The three on-miss phases
/// partition the mean miss latency exactly; cells without span data
/// report zeros.
pub(crate) fn with_span_columns(table: Table) -> Table {
    let spans = |cell: &CellResult| cell.summary.spans.unwrap_or_default();
    table
        .with_column("span_queue", 1, move |cell| spans(cell).queue_wait_mean)
        .with_column("span_net", 1, move |cell| spans(cell).network_mean)
        .with_column("span_home", 1, move |cell| spans(cell).home_mean)
        .with_column("span_token", 1, move |cell| spans(cell).token_wait_mean)
}
