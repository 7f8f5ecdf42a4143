//! Plain-text report tables for experiment output.
//!
//! Every experiment driver renders its typed output as one or more
//! [`Table`]s; examples print them, and `EXPERIMENTS.md` quotes them.
//!
//! The campaign API adds two uniform types on top: [`ExperimentId`]
//! names a driver (E1–E16), and [`Report`] is what every
//! [`crate::experiments::Experiment`] renders into — an id, a title
//! and tables of structured rows.

use std::fmt;

/// A titled table with a header row and data rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "## {}", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Identifies one of the experiment drivers (`E1`–`E16`, plus the
/// reserved test-only id `E17` and the fuzzing experiment `E18`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExperimentId(u8);

impl ExperimentId {
    /// Number of *registered* experiments (`E1`–`E16`).
    pub const REGISTERED: usize = 16;

    /// The id reserved for the test-only fault-demo experiment, which
    /// is deliberately **not** in the registry: its cells panic, stall
    /// and flake on purpose to exercise the campaign failure model.
    pub const FAULT_DEMO: ExperimentId = ExperimentId(17);

    /// The id of the coverage-guided fuzzing experiment, implemented in
    /// the `swsec-fuzz` crate. Not in the registry — the registry lives
    /// below `swsec-fuzz` in the crate graph — but runnable through
    /// [`crate::campaign::run_campaign_on`] like any experiment.
    pub const FUZZ: ExperimentId = ExperimentId(18);

    /// All registered experiment ids, in presentation order.
    pub const ALL: [ExperimentId; ExperimentId::REGISTERED] = {
        let mut ids = [ExperimentId(0); ExperimentId::REGISTERED];
        let mut i = 0;
        while i < ExperimentId::REGISTERED {
            ids[i] = ExperimentId(i as u8 + 1);
            i += 1;
        }
        ids
    };

    /// The id for experiment number `n` (1–18; 17 is the reserved
    /// test-only [`FAULT_DEMO`](ExperimentId::FAULT_DEMO) id, 18 the
    /// [`FUZZ`](ExperimentId::FUZZ) experiment).
    ///
    /// # Panics
    ///
    /// Panics when `n` is outside `1..=18`.
    pub fn new(n: u8) -> ExperimentId {
        assert!((1..=18).contains(&n), "experiment number {n} out of range");
        ExperimentId(n)
    }

    /// The experiment number (1–18).
    pub fn number(self) -> u8 {
        self.0
    }

    /// Zero-based position in presentation order.
    pub fn index(self) -> usize {
        usize::from(self.0) - 1
    }

    /// The number as a seed-derivation path element.
    pub fn seed_path(self) -> u64 {
        u64::from(self.0)
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// Uniform experiment output: id, title, and structured tables.
///
/// `Report` is what the campaign runner gets back from each
/// experiment — equality (and hence campaign determinism checks)
/// compare the full structured contents, and [`Report::render`] is a
/// pure function of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Which experiment produced this.
    pub id: ExperimentId,
    /// Human-readable experiment title.
    pub title: String,
    /// The structured results.
    pub tables: Vec<Table>,
}

impl Report {
    /// A report with no tables yet.
    pub fn new(id: ExperimentId, title: impl Into<String>) -> Report {
        Report {
            id,
            title: title.into(),
            tables: Vec::new(),
        }
    }

    /// Renders the full report deterministically.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {} — {}", self.id, self.title)?;
        for t in &self.tables {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

/// Wraps preformatted text (a source listing, a disassembly) as a
/// single-column table so it can travel inside a [`Report`].
pub fn text_panel(title: impl Into<String>, text: &str) -> Table {
    let mut t = Table::new(title, &["text"]);
    for line in text.lines() {
        t.row(vec![line.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_enumerate_e1_to_e16() {
        assert_eq!(ExperimentId::ALL.len(), 16);
        assert_eq!(ExperimentId::ALL[0].to_string(), "E1");
        assert_eq!(ExperimentId::ALL[15].to_string(), "E16");
        assert_eq!(ExperimentId::new(3).index(), 2);
        // The fault-demo and fuzz ids exist but are not registered ids.
        assert_eq!(ExperimentId::FAULT_DEMO.to_string(), "E17");
        assert!(!ExperimentId::ALL.contains(&ExperimentId::FAULT_DEMO));
        assert_eq!(ExperimentId::FUZZ.to_string(), "E18");
        assert_eq!(ExperimentId::new(18), ExperimentId::FUZZ);
        assert!(!ExperimentId::ALL.contains(&ExperimentId::FUZZ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn experiment_id_rejects_zero() {
        ExperimentId::new(0);
    }

    #[test]
    fn report_renders_title_and_tables() {
        let mut r = Report::new(ExperimentId::new(2), "demo");
        let mut t = Table::new("inner", &["a"]);
        t.row(vec!["x"]);
        r.tables.push(t);
        let s = r.render();
        assert!(s.contains("# E2 — demo"));
        assert!(s.contains("## inner"));
    }

    #[test]
    fn text_panels_preserve_lines() {
        let t = text_panel("listing", "one\ntwo");
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1][0], "two");
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["attack", "verdict"]);
        t.row(vec!["stack smash", "COMPROMISED"]);
        t.row(vec!["rop", "blocked"]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("stack smash  COMPROMISED"));
        assert!(s.contains("rop          blocked"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_mismatched_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only one"]);
    }
}
