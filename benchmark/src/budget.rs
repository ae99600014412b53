//! The per-layer time budget of a traced run.
//!
//! The driver brackets every call it makes into the library, and every
//! deliberate wait, with [`Budget::begin`] / [`Budget::end`]. Spans never
//! nest at this level; time inside a span is split further by subtracting
//! what the probes measured within it. Time between two spans is the
//! driver's own, and is charged as a *gap* to the row that starts next, so
//! that when coverage is low the table names where the missing seam is.

use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Row {
    pub label: String,
    pub calls: u64,
    pub ns: u64,
    /// Uncovered time that passed before spans of this row began.
    pub gap_ns: u64,
}

pub type RowId = usize;

pub struct Budget {
    on: bool,
    rows: Vec<Row>,
    started: Instant,
    last_end: Instant,
    stopped_ns: Option<u64>,
}

impl Budget {
    pub fn new(on: bool) -> Budget {
        let now = Instant::now();
        Budget {
            on,
            rows: Vec::new(),
            started: now,
            last_end: now,
            stopped_ns: None,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn row(&mut self, label: &str) -> RowId {
        if let Some(i) = self.rows.iter().position(|r| r.label == label) {
            return i;
        }
        self.rows.push(Row {
            label: label.to_string(),
            calls: 0,
            ns: 0,
            gap_ns: 0,
        });
        self.rows.len() - 1
    }

    pub fn stop(&mut self) {
        self.stopped_ns = Some(self.started.elapsed().as_nanos() as u64);
    }

    /// Takes the time since `paused_at` out of the wall-clock: what ran in
    /// between (reading results out, the oracle) is not part of the run.
    pub fn resume(&mut self, paused_at: Instant) {
        self.started += paused_at.elapsed();
        self.last_end = Instant::now();
    }

    pub fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    pub fn end(&mut self, row: RowId, began: Option<Instant>) {
        let Some(began) = began else { return };
        let now = Instant::now();
        let r = &mut self.rows[row];
        r.calls += 1;
        r.ns += (now - began).as_nanos() as u64;
        r.gap_ns += began.saturating_duration_since(self.last_end).as_nanos() as u64;
        self.last_end = now;
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    fn find(&self, label: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.label == label)
    }

    pub fn ns(&self, label: &str) -> u64 {
        self.find(label).map_or(0, |r| r.ns)
    }

    pub fn calls(&self, label: &str) -> u64 {
        self.find(label).map_or(0, |r| r.calls)
    }

    /// Wall-clock from the budget's creation to [`Budget::stop`].
    pub fn wall_ns(&self) -> u64 {
        self.stopped_ns
            .unwrap_or_else(|| self.started.elapsed().as_nanos() as u64)
    }

    pub fn covered_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn gaps_are_charged_to_the_next_span() {
        let mut b = Budget::new(true);
        let (a, c) = (b.row("a"), b.row("c"));
        let t = b.begin();
        std::thread::sleep(Duration::from_millis(2));
        b.end(a, t);
        std::thread::sleep(Duration::from_millis(3));
        let t = b.begin();
        b.end(c, t);
        b.stop();
        assert!(b.rows()[a].ns >= 2_000_000);
        assert!(b.rows()[c].gap_ns >= 3_000_000);
        assert!(b.rows()[a].gap_ns < 1_000_000);
        assert!(b.covered_ns() + b.rows()[c].gap_ns <= b.wall_ns());
    }

    #[test]
    fn off_records_nothing() {
        let mut b = Budget::new(false);
        let a = b.row("a");
        let t = b.begin();
        b.end(a, t);
        assert_eq!(b.rows()[a].calls, 0);
    }
}
