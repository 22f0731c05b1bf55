//! Property-based tests: arbitrary well-formed logs survive the
//! export → ingest round trip with nothing lost or invented, the streaming
//! reader agrees with record-at-a-time parsing, and the parsers never
//! panic on hostile bytes (non-UTF-8, oversized lines, garbled headers) —
//! they fail typed or quarantine.

use std::io::BufRead;

use proptest::prelude::*;

use segugio_ingest::{
    export_day, IngestError, LogCollector, LogRecord, QuarantinePolicy, ZeekReader,
};
use segugio_model::{Day, DayWindow, DomainName, DomainTable, Ipv4, MachineId};

fn label() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn name() -> impl Strategy<Value = String> {
    proptest::collection::vec(label(), 1..4).prop_map(|l| l.join("."))
}

proptest! {
    /// Every parsed record reproduces the encoded fields exactly.
    #[test]
    fn record_round_trips_through_text(
        day in 0u32..1000,
        client in "[a-z0-9-]{1,12}",
        qname in name(),
        ips in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    ) {
        let ips: Vec<Ipv4> = ips
            .iter()
            .map(|&(a, b)| Ipv4::from_octets(10, 0, a, b))
            .collect();
        let mut dedup = ips.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let line = format!(
            "{day}\t{client}\t{qname}\t{}",
            ips.iter().map(|ip| ip.to_string()).collect::<Vec<_>>().join(",")
        );
        let record = LogRecord::parse(&line, 1).expect("constructed line is valid");
        prop_assert_eq!(record.day, Day(day));
        prop_assert_eq!(record.client.as_str(), client.as_str());
        prop_assert_eq!(record.qname.as_str(), qname.as_str());
        prop_assert_eq!(&record.ips, &ips);
    }

    /// Export → ingest preserves the distinct query-edge set, machine
    /// count and distinct domains, for arbitrary traffic shapes.
    #[test]
    fn export_ingest_preserves_structure(
        edges in proptest::collection::vec((0u32..8, 0usize..6), 1..60),
        names in proptest::collection::vec(name(), 6..7),
    ) {
        let mut table = DomainTable::new();
        let ids: Vec<_> = names
            .iter()
            .map(|n| table.intern(&DomainName::parse(n).unwrap()))
            .collect();
        let queries: Vec<(MachineId, _)> = edges
            .iter()
            .map(|&(m, d)| (MachineId(m), ids[d]))
            .collect();
        let text = export_day(&table, 3, &queries, &[]);
        let mut collector = LogCollector::new();
        let n = collector.ingest_reader(text.as_bytes()).unwrap();
        prop_assert_eq!(n, queries.len());

        let distinct_machines: std::collections::HashSet<u32> =
            edges.iter().map(|&(m, _)| m).collect();
        prop_assert_eq!(collector.machine_count(), distinct_machines.len());
        let distinct_domains: std::collections::HashSet<usize> =
            edges.iter().map(|&(_, d)| d).collect();
        // Domains dedup by *name*; names may collide in the strategy.
        let distinct_names: std::collections::HashSet<&str> = distinct_domains
            .iter()
            .map(|&d| names[d].as_str())
            .collect();
        prop_assert_eq!(collector.table().len(), distinct_names.len());
        // The collector finalizes each day sorted and deduplicated, so the
        // expected count is the number of distinct (machine, domain-name)
        // edges — domains dedup by name here too.
        let distinct_edges: std::collections::HashSet<(u32, &str)> = edges
            .iter()
            .map(|&(m, d)| (m, names[d].as_str()))
            .collect();
        let day = collector.day(Day(3)).unwrap();
        prop_assert_eq!(day.queries.len(), distinct_edges.len());
    }
}

/// Bytes hostile to a line-oriented TSV parser: either raw arbitrary
/// bytes (non-UTF-8 sequences included) or text assembled from the
/// characters the parsers treat as structure (tabs, newlines, digits,
/// dots, commas, comments) so the interesting branches are actually hit.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..2048),
        "[0-9a-z.\t\n,# -]{1,256}",
    )
        .prop_map(|(pick, raw, text)| match pick % 3 {
            0 => raw,
            1 => text.into_bytes(),
            _ => {
                // One oversized line: strip newlines and double the text
                // until it dwarfs any sane log line.
                let mut line: Vec<u8> = text.into_bytes();
                line.retain(|&b| b != b'\n');
                line.push(b'x');
                while line.len() < 4096 {
                    let chunk = line.clone();
                    line.extend_from_slice(&chunk);
                }
                line
            }
        })
}

proptest! {
    /// `LogRecord::parse` returns Ok or a typed error on any input line,
    /// including oversized and structure-heavy ones — never panics.
    #[test]
    fn log_record_parse_never_panics(bytes in hostile_bytes()) {
        let text = String::from_utf8_lossy(&bytes);
        for (i, line) in text.lines().enumerate() {
            let _ = LogRecord::parse(line, i as u64 + 1);
        }
    }

    /// Strict ingest on arbitrary bytes either succeeds or fails typed.
    #[test]
    fn ingest_reader_never_panics(bytes in hostile_bytes()) {
        let mut collector = LogCollector::new();
        let _ = collector.ingest_reader(bytes.as_slice());
    }

    /// Quarantined ingest never panics, and a rejected file leaves the
    /// collector exactly as empty as it started (all-or-nothing).
    #[test]
    fn ingest_quarantined_is_all_or_nothing(bytes in hostile_bytes()) {
        let mut collector = LogCollector::new();
        let policy = QuarantinePolicy::default();
        match collector.ingest_quarantined(bytes.as_slice(), &policy) {
            Ok(stats) => {
                let ingested = usize::try_from(stats.ingested).unwrap_or(usize::MAX);
                prop_assert!(collector.days().len() <= ingested);
            }
            Err(IngestError::QuarantineExceeded { .. }) => {
                prop_assert_eq!(collector.machine_count(), 0);
                prop_assert!(collector.days().is_empty());
            }
            Err(_) => {}
        }
    }

    /// The Zeek reader — including its private `#fields` header parser —
    /// survives arbitrary bytes without panicking.
    #[test]
    fn zeek_ingest_never_panics(bytes in hostile_bytes()) {
        let mut collector = LogCollector::new();
        let _ = ZeekReader::new().ingest(bytes.as_slice(), &mut collector);
        let mut collector = LogCollector::new();
        let _ = ZeekReader::new().ingest_quarantined(
            bytes.as_slice(),
            &mut collector,
            &QuarantinePolicy::default(),
        );
    }

    /// Fuzzes the `#fields` header line directly: arbitrary column names
    /// (unicode, duplicates, empties) followed by fuzzed data rows must
    /// parse, error typed, or quarantine — never panic.
    #[test]
    fn zeek_header_parser_never_panics(
        columns in proptest::collection::vec("[\t -~]{0,24}", 0..12),
        rows in proptest::collection::vec("[\t -~]{0,64}", 0..8),
    ) {
        let mut log = String::from("#fields");
        for col in &columns {
            log.push('\t');
            log.push_str(col);
        }
        log.push('\n');
        for row in &rows {
            log.push_str(row);
            log.push('\n');
        }
        let mut collector = LogCollector::new();
        let _ = ZeekReader::new().ingest(log.as_bytes(), &mut collector);
    }
}

// ---------------------------------------------------------------------------
// Differential: `ingest_reader` against `LogRecord::parse` + `ingest`.

const CLIENTS: [&str; 4] = ["host-a", "host-b", "10.1.2.3", "c"];
const NAMES: [&str; 4] = [
    "www.example.com",
    "mail.example.com",
    "evil.test",
    "x.y.bbc.co.uk",
];
const IPS: [&str; 4] = [
    "93.184.216.34",
    "198.51.100.9",
    "198.51.100.10",
    " 10.0.0.1 ",
];

/// One well-formed line: a small pool of clients, names and IPs so lines
/// repeat (multi-IP answers included), names spelled canonically, in
/// upper case or with a trailing dot, and LF or CRLF endings.
fn good_line() -> impl Strategy<Value = String> {
    (
        0u32..3,
        0usize..CLIENTS.len(),
        0usize..NAMES.len(),
        0u8..3,
        proptest::collection::vec(0usize..IPS.len(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(day, client, name, spelling, ips, crlf)| {
            let name = match spelling {
                0 => NAMES[name].to_owned(),
                1 => NAMES[name].to_ascii_uppercase(),
                _ => format!("{}.", NAMES[name]),
            };
            let ips: Vec<&str> = ips.iter().map(|&i| IPS[i]).collect();
            let eol = if crlf { "\r\n" } else { "\n" };
            format!("{day}\t{}\t{name}\t{}{eol}", CLIENTS[client], ips.join(","))
        })
}

/// A log line or one of the lines the reader must skip.
fn any_line() -> impl Strategy<Value = String> {
    (0u8..8, good_line()).prop_map(|(pick, line)| match pick {
        0 => "# a comment\n".to_owned(),
        1 => "\n".to_owned(),
        2 => "  \t \r\n".to_owned(),
        _ => line,
    })
}

/// A line carrying one damaged field. Its client and qname are new, so
/// interning anything from it would show in the collector.
fn damaged_line(kind: u8) -> Vec<u8> {
    let line = match kind {
        0 => "x1\tfresh-client\tfresh.example\t1.2.3.4\n",
        1 => "0\t \tfresh.example\t1.2.3.4\n",
        2 => "0\tfresh-client\tnot a domain\t1.2.3.4\n",
        3 => "0\tfresh-client\tfresh.example\n",
        4 => "0\tfresh-client\tfresh.example\t1.2.3.4,999.1.1.1\n",
        _ => return b"0\tfresh-client\tfresh.\xFFexample\t1.2.3.4\n".to_vec(),
    };
    line.as_bytes().to_vec()
}

/// What a strict read ended with, in comparable form.
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok(usize),
    Parse(u64, String),
    Io(u64, std::io::ErrorKind),
}

fn outcome(result: Result<usize, IngestError>) -> Outcome {
    match result {
        Ok(n) => Outcome::Ok(n),
        Err(IngestError::Parse(e)) => Outcome::Parse(e.line(), format!("{:?}", e.kind())),
        Err(IngestError::Io { line, source }) => Outcome::Io(line, source.kind()),
        Err(other) => panic!("unexpected error from a strict read: {other:?}"),
    }
}

/// The reference reader: `BufRead::lines`, then `LogRecord::parse` and
/// `LogCollector::ingest` one record at a time.
fn reference_ingest(collector: &mut LogCollector, bytes: &[u8]) -> Result<usize, IngestError> {
    let mut ingested = 0;
    for (idx, line) in bytes.lines().enumerate() {
        let line_no = idx as u64 + 1;
        let line = line.map_err(|source| IngestError::Io {
            line: line_no,
            source,
        })?;
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let record =
            LogRecord::parse(line.trim_end_matches('\r'), line_no).map_err(IngestError::Parse)?;
        collector.ingest(record);
        ingested += 1;
    }
    Ok(ingested)
}

/// Everything a collector exposes, in a comparable, ordered form.
fn state(c: &LogCollector) -> String {
    let mut out = String::new();
    let machines: Vec<_> = (0..c.machine_count() as u32)
        .map(|m| c.machine_name(MachineId(m)))
        .collect();
    let names: Vec<&str> = c
        .table()
        .ids()
        .map(|d| c.table().name(d).as_str())
        .collect();
    out.push_str(&format!("machines {machines:?}\nnames {names:?}\n"));
    let all = DayWindow::new(Day(0), Day(10));
    for day in c.days() {
        out.push_str(&format!("{day:?} {:?}\n", c.try_day(day).unwrap()));
        let active: Vec<_> = c
            .table()
            .ids()
            .filter(|&d| c.activity().fqd_active_on(d, day))
            .collect();
        out.push_str(&format!("active {active:?}\n"));
    }
    let records: Vec<_> = c.pdns().records_in(all).collect();
    out.push_str(&format!("pdns {} {records:?}\n", c.pdns().len()));
    out
}

proptest! {
    /// The streaming reader returns what record-at-a-time ingestion
    /// returns — the same count, or the same error kind on the same line —
    /// and leaves the collector in the same state. A damaged line interns
    /// nothing: its fresh client and qname never appear.
    #[test]
    fn ingest_reader_matches_record_at_a_time(
        lines in proptest::collection::vec(any_line(), 0..40),
        damage in (any::<bool>(), 0usize..64, 0u8..6),
        warm_up in any::<bool>(),
    ) {
        let mut bytes: Vec<u8> = lines.concat().into_bytes();
        let (damaged, at, kind) = damage;
        if damaged {
            // Insert the damaged line at a line boundary.
            let starts: Vec<usize> = std::iter::once(0)
                .chain(bytes.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1))
                .collect();
            let pos = starts[at % starts.len()];
            bytes.splice(pos..pos, damaged_line(kind));
        }
        let mut streaming = LogCollector::new();
        let mut reference = LogCollector::new();
        if warm_up {
            // Start from interned names and clients, so most lines take the
            // already-interned path.
            let seed = lines.concat();
            streaming.ingest_reader(seed.as_bytes()).unwrap();
            reference_ingest(&mut reference, seed.as_bytes()).unwrap();
        }
        let got = outcome(streaming.ingest_reader(bytes.as_slice()));
        let want = outcome(reference_ingest(&mut reference, &bytes));
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(damaged, !matches!(got, Outcome::Ok(_)));
        prop_assert_eq!(state(&streaming), state(&reference));
        prop_assert_eq!(streaming.machine_id("fresh-client"), None);
        prop_assert_eq!(streaming.table().get_str("fresh.example"), None);
    }
}
