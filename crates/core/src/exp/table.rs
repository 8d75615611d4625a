//! Experiment result tables: per-cell summaries plus caller-defined
//! metric columns with baseline normalization and confidence intervals.

use std::fmt;
use std::io::{self, Write};

use patchsim_kernel::stats::ConfidenceInterval;

use crate::exp::emit::Format;
use crate::{RunSummary, SimConfig};

/// The measured outcome of one grid cell: its axis labels, the
/// configuration that produced it, and the summary over its replications.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// One label per plan axis, in axis order.
    pub labels: Vec<String>,
    /// The configuration the cell simulated (seed = the cell's base seed).
    pub config: SimConfig,
    /// Statistics over the cell's perturbed-seed runs.
    pub summary: RunSummary,
}

/// How a failed cell died. Rendered in failure reports and used by the
/// CLI to pick an exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The simulation panicked (e.g. a livelock watchdog or an internal
    /// invariant check fired).
    Panic,
    /// The cell exceeded its wall-clock budget.
    Timeout,
    /// The run completed but its `--record-trace` output could not be
    /// written.
    TraceWrite,
    /// The run completed but its `--metrics` JSONL output could not be
    /// written.
    MetricsWrite,
}

impl FailureKind {
    /// Short lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::TraceWrite => "trace-write",
            FailureKind::MetricsWrite => "metrics-write",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One grid cell that produced no result: its coordinates, the config
/// that failed, and what went wrong on the last attempt.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// One label per plan axis, in axis order.
    pub labels: Vec<String>,
    /// The configuration that failed (seed = the cell's base seed).
    pub config: SimConfig,
    /// The failure category of the final attempt.
    pub kind: FailureKind,
    /// How many attempts were made (1 = no retries).
    pub attempts: u32,
    /// The panic payload, timeout description, or I/O error text.
    pub error: String,
}

/// Typed errors from table construction: a normalization column declared
/// against an axis the table does not have.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TableError {
    /// The requested normalization axis is not one of the table's axes.
    UnknownAxis {
        /// The axis name the caller passed.
        axis: String,
        /// The table's actual axes.
        axes: Vec<String>,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::UnknownAxis { axis, axes } => write!(
                f,
                "unknown normalization axis '{axis}' (table axes: {})",
                axes.join(", ")
            ),
        }
    }
}

impl std::error::Error for TableError {}

/// A scalar metric extractor over one cell.
pub type Metric = Box<dyn Fn(&CellResult) -> f64>;

/// A confidence-interval metric extractor over one cell.
pub type CiMetric = Box<dyn Fn(&CellResult) -> ConfidenceInterval>;

enum ColumnKind {
    Metric(Metric),
    Ci(CiMetric),
    Normalized {
        axis: usize,
        baseline: String,
        metric: Metric,
    },
}

impl fmt::Debug for ColumnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnKind::Metric(_) => f.write_str("Metric"),
            ColumnKind::Ci(_) => f.write_str("Ci"),
            ColumnKind::Normalized { axis, baseline, .. } => f
                .debug_struct("Normalized")
                .field("axis", axis)
                .field("baseline", baseline)
                .finish_non_exhaustive(),
        }
    }
}

/// One metric column of a [`Table`].
#[derive(Debug)]
pub struct Column {
    name: String,
    precision: usize,
    kind: ColumnKind,
}

impl Column {
    /// The column's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Decimal places used when formatting the column's values.
    pub fn precision(&self) -> usize {
        self.precision
    }

    /// Whether the column carries a confidence interval (emitters render
    /// such columns as a mean plus a 95% half-width).
    pub fn has_ci(&self) -> bool {
        matches!(self.kind, ColumnKind::Ci(_))
    }
}

/// One computed table value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A scalar metric.
    Num(f64),
    /// A mean with a 95% confidence half-width.
    Ci(ConfidenceInterval),
    /// A normalized value whose baseline row is absent from the grid
    /// (failed, filtered, or in another shard). Emitters render it as an
    /// empty CSV field, a JSON `null`, and a dash in text.
    Missing,
}

impl Value {
    /// The value's primary scalar (the mean, for CI values; NaN when
    /// missing).
    pub fn primary(&self) -> f64 {
        match self {
            Value::Num(v) => *v,
            Value::Ci(ci) => ci.mean,
            Value::Missing => f64::NAN,
        }
    }
}

/// An experiment result grid with named metric columns, produced by
/// [`Runner::run`](crate::exp::Runner::run) and rendered by the emitters
/// in [`exp`](crate::exp).
///
/// Columns are declared by the caller: plain metrics, metrics with 95%
/// confidence intervals, and metrics normalized to a baseline value of
/// one axis (the cell with the same coordinates except that axis set to
/// the baseline label — the y-axis convention of the paper's figures).
#[derive(Debug)]
pub struct Table {
    title: String,
    axes: Vec<String>,
    cells: Vec<CellResult>,
    columns: Vec<Column>,
    notes: Vec<String>,
    failures: Vec<CellFailure>,
}

impl Table {
    /// Builds a table from raw cell results.
    ///
    /// # Panics
    ///
    /// Panics if any cell's label count differs from the axis count.
    pub fn new(title: impl Into<String>, axes: Vec<String>, cells: Vec<CellResult>) -> Self {
        for cell in &cells {
            assert_eq!(
                cell.labels.len(),
                axes.len(),
                "cell labels must match axis count"
            );
        }
        Table {
            title: title.into(),
            axes,
            cells,
            columns: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Attaches the plan cells that produced no result (panicked, timed
    /// out, or failed their trace write after exhausting retries).
    /// Emitters render them explicitly so a sweep with failures can
    /// never be mistaken for a complete one.
    ///
    /// # Panics
    ///
    /// Panics if any failure's label count differs from the axis count.
    pub fn with_cell_failures(mut self, failures: Vec<CellFailure>) -> Self {
        for failure in &failures {
            assert_eq!(
                failure.labels.len(),
                self.axes.len(),
                "failure labels must match axis count"
            );
        }
        self.failures = failures;
        self
    }

    /// The cells that produced no result, in grid order.
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Axis names (the label columns).
    pub fn axes(&self) -> &[String] {
        &self.axes
    }

    /// The cells, in grid order.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// The declared metric columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Free-form notes (paper context, caveats). The text emitter prints
    /// them as trailing `#` lines; JSON carries them in a `notes` array;
    /// CSV omits them.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Appends a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Replaces the table's title (plans that back several figures let
    /// each binary title its own table).
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    fn push_column(&mut self, name: String, precision: usize, kind: ColumnKind) {
        assert!(
            !self.axes.contains(&name) && !self.columns.iter().any(|c| c.name == name),
            "duplicate column name '{name}'"
        );
        self.columns.push(Column {
            name,
            precision,
            kind,
        });
    }

    /// Adds a scalar metric column.
    ///
    /// # Panics
    ///
    /// Panics if `name` repeats an axis or column name.
    pub fn with_column(
        mut self,
        name: impl Into<String>,
        precision: usize,
        metric: impl Fn(&CellResult) -> f64 + 'static,
    ) -> Self {
        self.push_column(name.into(), precision, ColumnKind::Metric(Box::new(metric)));
        self
    }

    /// Adds a metric column carrying a 95% confidence interval.
    ///
    /// # Panics
    ///
    /// Panics if `name` repeats an axis or column name.
    pub fn with_ci_column(
        mut self,
        name: impl Into<String>,
        precision: usize,
        metric: impl Fn(&CellResult) -> ConfidenceInterval + 'static,
    ) -> Self {
        self.push_column(name.into(), precision, ColumnKind::Ci(Box::new(metric)));
        self
    }

    /// Adds a metric column normalized to a baseline: each cell's value is
    /// divided by the metric of the cell at the same coordinates with
    /// `axis` set to `baseline_label` (so the baseline cells themselves
    /// read 1.0). A row whose baseline cell is absent reads
    /// [`Value::Missing`].
    ///
    /// # Panics
    ///
    /// Panics if `axis` is not one of the table's axes or if `name`
    /// repeats an existing column or axis name. Callers handling
    /// user-supplied axis names should use
    /// [`try_normalized_column`](Table::try_normalized_column).
    pub fn with_normalized_column(
        self,
        name: impl Into<String>,
        precision: usize,
        axis: &str,
        baseline_label: &str,
        metric: impl Fn(&CellResult) -> f64 + 'static,
    ) -> Self {
        self.try_normalized_column(name, precision, axis, baseline_label, metric)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`with_normalized_column`](Table::with_normalized_column):
    /// a bad axis comes back as a [`TableError`] naming it instead of a
    /// panic.
    ///
    /// # Errors
    ///
    /// [`TableError::UnknownAxis`] when `axis` is not a table axis.
    ///
    /// # Panics
    ///
    /// Still panics if `name` repeats an existing column or axis name —
    /// that is a programming error in the plan, not a data condition.
    pub fn try_normalized_column(
        mut self,
        name: impl Into<String>,
        precision: usize,
        axis: &str,
        baseline_label: &str,
        metric: impl Fn(&CellResult) -> f64 + 'static,
    ) -> Result<Self, TableError> {
        let Some(axis_idx) = self.axes.iter().position(|a| a == axis) else {
            return Err(TableError::UnknownAxis {
                axis: axis.to_string(),
                axes: self.axes.clone(),
            });
        };
        self.push_column(
            name.into(),
            precision,
            ColumnKind::Normalized {
                axis: axis_idx,
                baseline: baseline_label.to_string(),
                metric: Box::new(metric),
            },
        );
        Ok(self)
    }

    /// The row index of the baseline cell for `row` on `axis`: identical
    /// coordinates except `axis` replaced by `baseline`.
    fn baseline_row(&self, row: usize, axis: usize, baseline: &str) -> Option<usize> {
        let labels = &self.cells[row].labels;
        self.cells.iter().position(|c| {
            c.labels[axis] == baseline
                && c.labels
                    .iter()
                    .enumerate()
                    .all(|(i, l)| i == axis || l == &labels[i])
        })
    }

    /// Computes the value of column `col` for row `row`:
    /// [`Value::Missing`] for a normalized column whose baseline cell is
    /// absent from the grid.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, row: usize, col: usize) -> Value {
        let cell = &self.cells[row];
        match &self.columns[col].kind {
            ColumnKind::Metric(metric) => Value::Num(metric(cell)),
            ColumnKind::Ci(metric) => Value::Ci(metric(cell)),
            ColumnKind::Normalized {
                axis,
                baseline,
                metric,
            } => match self.baseline_row(row, *axis, baseline) {
                Some(base) => Value::Num(metric(cell) / metric(&self.cells[base])),
                None => Value::Missing,
            },
        }
    }

    /// Renders the table in `format` to `out`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn emit(&self, format: Format, out: &mut dyn Write) -> io::Result<()> {
        format.emitter().emit(self, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{AxisValue, Runner, Sweep};
    use crate::{ProtocolKind, SimConfig, WorkloadSpec};

    fn tiny_table() -> Table {
        let base = SimConfig::new(ProtocolKind::Directory, 4)
            .with_workload(WorkloadSpec::Microbenchmark {
                table_blocks: 32,
                write_frac: 0.3,
                think_mean: 2,
            })
            .with_ops_per_core(40);
        let plan = Sweep::new("t", base)
            .axis(
                "config",
                vec![
                    AxisValue::new("Directory", |c| c),
                    AxisValue::new("PATCH", |c| c.with_kind(ProtocolKind::Patch)),
                ],
            )
            .axis(
                "think",
                vec![
                    AxisValue::new("short", |c| c),
                    AxisValue::new("long", |c| {
                        c.with_workload(WorkloadSpec::Microbenchmark {
                            table_blocks: 32,
                            write_frac: 0.3,
                            think_mean: 20,
                        })
                    }),
                ],
            )
            .build();
        Runner::serial().run(&plan)
    }

    #[test]
    fn normalized_column_reads_one_on_the_baseline() {
        let table =
            tiny_table().with_normalized_column("norm_runtime", 3, "config", "Directory", |cell| {
                cell.summary.runtime.mean
            });
        // Rows 0/1 are the Directory baselines for rows 2/3.
        for row in 0..2 {
            match table.value(row, 0) {
                Value::Num(v) => assert!((v - 1.0).abs() < 1e-12),
                v => panic!("unexpected value {v:?}"),
            }
        }
        // The PATCH rows normalize against the matching think-time cell.
        let v2 = table.value(2, 0).primary();
        let expected =
            table.cells()[2].summary.runtime.mean / table.cells()[0].summary.runtime.mean;
        assert!((v2 - expected).abs() < 1e-12);
    }

    #[test]
    fn ci_columns_carry_half_widths() {
        let table = tiny_table().with_ci_column("runtime", 0, |cell| cell.summary.runtime);
        match table.value(0, 0) {
            Value::Ci(ci) => assert!(ci.mean > 0.0),
            v => panic!("unexpected value {v:?}"),
        }
        assert!(table.columns()[0].has_ci());
    }

    #[test]
    #[should_panic(expected = "unknown normalization axis")]
    fn unknown_axis_rejected() {
        let _ = tiny_table().with_normalized_column("n", 3, "nope", "Directory", |_| 0.0);
    }

    #[test]
    fn try_normalized_column_names_the_bad_axis() {
        let err = tiny_table()
            .try_normalized_column("n", 3, "nope", "Directory", |_| 0.0)
            .unwrap_err();
        assert_eq!(
            err,
            TableError::UnknownAxis {
                axis: "nope".into(),
                axes: vec!["config".into(), "think".into()],
            }
        );
        assert!(err
            .to_string()
            .contains("unknown normalization axis 'nope'"));
    }

    /// `tiny_table` without the cells `drop` selects.
    fn tiny_table_without(drop: impl Fn(&CellResult) -> bool) -> Table {
        let full = tiny_table();
        let cells = full.cells().iter().filter(|c| !drop(c)).cloned().collect();
        Table::new("t", full.axes().to_vec(), cells)
    }

    #[test]
    fn rows_without_a_baseline_read_missing() {
        // Drop the Directory/short baseline so row PATCH/short has no
        // cell to normalize against — the situation a failed cell
        // creates.
        let table = tiny_table_without(|c| c.labels == ["Directory", "short"])
            .with_normalized_column("norm", 3, "config", "Directory", |c| c.summary.runtime.mean);
        let row = |labels: [&str; 2]| {
            table
                .cells()
                .iter()
                .position(|c| c.labels == labels)
                .unwrap()
        };
        assert_eq!(table.value(row(["PATCH", "short"]), 0), Value::Missing);
        assert!(table.value(row(["PATCH", "short"]), 0).primary().is_nan());
        // Rows whose baseline survives still compute.
        assert_eq!(table.value(row(["Directory", "long"]), 0), Value::Num(1.0));
    }

    #[test]
    fn baseline_free_grid_emits_in_every_format() {
        // A shard holding no Directory cell at all: the column still
        // declares, and every format renders the values as absent.
        let table = tiny_table_without(|c| c.labels[0] == "Directory")
            .with_column("one", 1, |_| 1.0)
            .with_normalized_column("norm", 3, "config", "Directory", |c| c.summary.runtime.mean);
        let emit = |format: Format| {
            let mut out = Vec::new();
            table.emit(format, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        assert_eq!(
            emit(Format::Csv),
            "config,think,one,norm\nPATCH,short,1.0,\nPATCH,long,1.0,\n"
        );
        let json = emit(Format::Json);
        assert!(
            json.contains(r#"{"config": "PATCH", "think": "short", "one": 1.0, "norm": null},"#)
        );
        let text = emit(Format::Text);
        let rows: Vec<&str> = text.lines().skip(3).collect();
        assert_eq!(
            rows,
            ["PATCH   short  1.0     -", "PATCH   long   1.0     -"]
        );
    }

    #[test]
    fn failures_attach_and_render_metadata() {
        let full = tiny_table();
        let victim = full.cells()[0].clone();
        let survivors: Vec<CellResult> = full.cells()[1..].to_vec();
        let table = Table::new("t", full.axes().to_vec(), survivors).with_cell_failures(vec![
            CellFailure {
                labels: victim.labels.clone(),
                config: victim.config.clone(),
                kind: FailureKind::Panic,
                attempts: 2,
                error: "boom".into(),
            },
        ]);
        assert_eq!(table.failures().len(), 1);
        assert_eq!(table.failures()[0].kind.label(), "panic");
        assert_eq!(FailureKind::Timeout.to_string(), "timeout");
        assert_eq!(FailureKind::TraceWrite.to_string(), "trace-write");
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_column_rejected() {
        let _ = tiny_table()
            .with_column("x", 1, |_| 0.0)
            .with_column("x", 1, |_| 0.0);
    }
}
