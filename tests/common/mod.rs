//! A candidate-row accessor that records every row read, shared by the
//! scheduler property suites: it stands in for the view cache's rows,
//! which are built only when a scheduler reads them.

use std::cell::RefCell;
use tango_repro::sched::{CandidateNode, CandidateRows, LcBatch, TypeBatch};

/// Plain rows read through [`CandidateRows`], with the index of every
/// read recorded.
pub struct CountingRows<'a> {
    rows: &'a [CandidateNode],
    /// Row indices in the order they were read.
    pub reads: RefCell<Vec<usize>>,
}

impl<'a> CountingRows<'a> {
    /// An accessor over `rows`.
    pub fn new(rows: &'a [CandidateNode]) -> Self {
        CountingRows {
            rows,
            reads: RefCell::default(),
        }
    }

    /// `batch` lent with these rows in place of its own.
    pub fn lend(&'a self, batch: &'a TypeBatch) -> LcBatch<'a> {
        LcBatch {
            rows: self,
            ..batch.as_lc()
        }
    }
}

impl CandidateRows for CountingRows<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn row(&self, i: usize) -> CandidateNode {
        self.reads.borrow_mut().push(i);
        self.rows[i]
    }
}
