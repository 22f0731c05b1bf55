//! Allocation guard for the log reader: once every client and qname is
//! interned, reading more lines allocates only amortized buffer growth,
//! not per line.
//!
//! This file holds exactly one test, so the counting allocator sees no
//! concurrent traffic from sibling tests while it measures.

use std::fmt::Write as _;

use segugio_alloc_probe::{measure, CountingAlloc};
use segugio_ingest::LogCollector;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CLIENTS: usize = 1_000;
const NAMES: usize = 50;
const LINES: usize = 100_000;

/// A line for `client` querying name `name`; every name always resolves
/// to the same two addresses, so a re-read adds no new pDNS fact.
fn push_line(text: &mut String, client: usize, name: usize) {
    let _ = writeln!(
        text,
        "0\tclient-{client}\tn{name}.example.com\t10.0.{name}.1,10.0.{name}.2"
    );
}

#[test]
fn interned_lines_allocate_almost_nothing() {
    let mut warm = String::new();
    for client in 0..CLIENTS {
        push_line(&mut warm, client, client % NAMES);
    }
    let mut text = String::new();
    for k in 0..LINES {
        push_line(&mut text, (k * 7) % CLIENTS, (k * 13) % NAMES);
    }

    let mut collector = LogCollector::new();
    assert_eq!(collector.ingest_reader(warm.as_bytes()).unwrap(), CLIENTS);
    let (read, counts) = measure(|| collector.ingest_reader(text.as_bytes()));
    assert_eq!(read.unwrap(), LINES);
    assert_eq!(collector.machine_count(), CLIENTS);
    assert_eq!(collector.table().len(), NAMES);
    assert!(
        counts.allocs < 64,
        "{} allocations for {LINES} already-interned lines",
        counts.allocs
    );
}
